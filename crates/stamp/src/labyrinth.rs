//! labyrinth — parallel maze routing (STAMP `labyrinth`).
//!
//! Lee's algorithm on a 3-D grid: threads take `(source, destination)`
//! work items off a shared queue and route each one in a single *long*
//! transaction — a breadth-first expansion reading a large region of the
//! grid, then a backtrack writing the chosen path's cells. Two routes
//! crossing the same cells conflict, and the loser replans. Labyrinth is
//! STAMP's long-transaction/large-footprint extreme.
//!
//! Txn sites: 0 = take a work item, 1 = route (expand + write path).

use crate::{mix64, run_workers, BenchResult, Benchmark, InputSize, RunConfig};
use gstm_core::TxnId;
use gstm_structs::TQueue;
use gstm_tl2::{Stm, TVar, TxResult, Txn};
use std::collections::VecDeque;
use std::sync::Arc;

const TXN_TAKE: TxnId = TxnId(0);
const TXN_ROUTE: TxnId = TxnId(1);

/// A 3-D grid coordinate.
type Point = (usize, usize, usize);
/// A routing work item: `(path id, source, destination)`.
type Route = (u32, Point, Point);

struct Params {
    width: usize,
    height: usize,
    depth: usize,
    routes: usize,
}

fn params(size: InputSize) -> Params {
    match size {
        InputSize::Small => Params {
            width: 16,
            height: 16,
            depth: 2,
            routes: 12,
        },
        InputSize::Medium => Params {
            width: 32,
            height: 32,
            depth: 2,
            routes: 24,
        },
        InputSize::Large => Params {
            width: 48,
            height: 48,
            depth: 3,
            routes: 48,
        },
    }
}

/// The routing grid: one transactional cell per coordinate. 0 = free,
/// otherwise the id (1-based) of the path occupying the cell.
struct Grid {
    cells: Vec<TVar<u32>>,
    w: usize,
    h: usize,
    d: usize,
}

impl Grid {
    fn new(w: usize, h: usize, d: usize) -> Self {
        Grid {
            cells: (0..w * h * d).map(|_| TVar::new(0)).collect(),
            w,
            h,
            d,
        }
    }

    #[inline]
    fn idx(&self, (x, y, z): (usize, usize, usize)) -> usize {
        (z * self.h + y) * self.w + x
    }

    fn neighbors(&self, (x, y, z): (usize, usize, usize)) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::with_capacity(6);
        if x > 0 {
            out.push((x - 1, y, z));
        }
        if x + 1 < self.w {
            out.push((x + 1, y, z));
        }
        if y > 0 {
            out.push((x, y - 1, z));
        }
        if y + 1 < self.h {
            out.push((x, y + 1, z));
        }
        if z > 0 {
            out.push((x, y, z - 1));
        }
        if z + 1 < self.d {
            out.push((x, y, z + 1));
        }
        out
    }

    /// Transactional BFS from `src` to `dst` over free cells, then write
    /// the backtracked path with `path_id`. Returns the path length, or
    /// `None` if unroutable in the current grid state.
    fn route(
        &self,
        tx: &mut Txn,
        src: (usize, usize, usize),
        dst: (usize, usize, usize),
        path_id: u32,
    ) -> TxResult<Option<u32>> {
        let n = self.cells.len();
        let mut parent: Vec<usize> = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        let si = self.idx(src);
        let di = self.idx(dst);
        // Endpoints must be free (they are grid-edge pads in the original;
        // here any occupied endpoint makes the route unroutable).
        if tx.read(&self.cells[si])? != 0 || tx.read(&self.cells[di])? != 0 {
            return Ok(None);
        }
        parent[si] = si;
        queue.push_back(src);
        let mut found = false;
        'bfs: while let Some(pos) = queue.pop_front() {
            for nb in self.neighbors(pos) {
                let ni = self.idx(nb);
                if parent[ni] != usize::MAX {
                    continue;
                }
                if tx.read(&self.cells[ni])? != 0 {
                    continue;
                }
                parent[ni] = self.idx(pos);
                if ni == di {
                    found = true;
                    break 'bfs;
                }
                queue.push_back(nb);
            }
        }
        if !found {
            return Ok(None);
        }
        // Backtrack and claim the path cells.
        let mut len = 0u32;
        let mut cur = di;
        loop {
            tx.write(&self.cells[cur], path_id)?;
            len += 1;
            if cur == si {
                break;
            }
            cur = parent[cur];
        }
        Ok(Some(len))
    }
}

/// Generate distinct endpoint pairs on the grid boundary.
fn gen_routes(p: &Params, seed: u64) -> Vec<(Point, Point)> {
    let mut out = Vec::new();
    let mut used = std::collections::HashSet::new();
    let mut r = seed;
    while out.len() < p.routes {
        r = mix64(r);
        let x0 = (r % p.width as u64) as usize;
        let y0 = ((r >> 16) % p.height as u64) as usize;
        let x1 = ((r >> 24) % p.width as u64) as usize;
        let y1 = ((r >> 32) % p.height as u64) as usize;
        let z0 = ((r >> 40) % p.depth as u64) as usize;
        let z1 = ((r >> 48) % p.depth as u64) as usize;
        let (a, b) = ((x0, y0, z0), (x1, y1, z1));
        if a == b || !used.insert(a) || !used.insert(b) {
            continue;
        }
        out.push((a, b));
    }
    out
}

/// The labyrinth benchmark.
pub(crate) struct Labyrinth;

impl Benchmark for Labyrinth {
    fn name(&self) -> &'static str {
        "labyrinth"
    }

    fn num_txn_sites(&self) -> u16 {
        2
    }

    fn run(&self, stm: &Arc<Stm>, cfg: &RunConfig) -> BenchResult {
        let p = params(cfg.size);
        let grid = Arc::new(Grid::new(p.width, p.height, p.depth));
        let routes = gen_routes(&p, cfg.seed);
        let work: TQueue<Route> = TQueue::new();
        {
            let setup = Stm::new(gstm_tl2::StmConfig::default());
            let mut ctx = setup.register_as(gstm_core::ThreadId(u16::MAX));
            for (i, &(a, b)) in routes.iter().enumerate() {
                ctx.atomically(TxnId(100), |tx| work.push(tx, (i as u32 + 1, a, b)));
            }
        }

        let mut result = run_workers(stm, cfg, |_t, ctx| {
            let mut routed = 0u64;
            let mut total_len = 0u64;
            loop {
                let item = ctx.atomically(TXN_TAKE, |tx| work.pop(tx));
                let (id, src, dst) = match item {
                    Some(x) => x,
                    None => break,
                };
                let len = ctx.atomically(TXN_ROUTE, |tx| grid.route(tx, src, dst, id));
                if let Some(len) = len {
                    routed += 1;
                    total_len += len as u64;
                }
            }
            routed.wrapping_mul(1_000_000).wrapping_add(total_len)
        });

        // Audit the final grid: count claimed cells; fold into checksum.
        let claimed: u64 = grid
            .cells
            .iter()
            .filter(|c| c.load_quiesced() != 0)
            .count() as u64;
        result.checksum = result.checksum.wrapping_add(claimed << 32);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_tl2::StmConfig;

    fn claimed_cells_by_path(grid: &Grid) -> std::collections::HashMap<u32, Vec<usize>> {
        let mut by_path: std::collections::HashMap<u32, Vec<usize>> = Default::default();
        for (i, c) in grid.cells.iter().enumerate() {
            let v = c.load_quiesced();
            if v != 0 {
                by_path.entry(v).or_default().push(i);
            }
        }
        by_path
    }

    #[test]
    fn single_route_on_empty_grid_is_manhattan_or_better() {
        let grid = Grid::new(8, 8, 1);
        let stm = Stm::new(StmConfig::default());
        let mut ctx = stm.register();
        let len = ctx.atomically(TxnId(1), |tx| grid.route(tx, (0, 0, 0), (3, 4, 0), 1));
        // Shortest path length = manhattan distance + 1 cells.
        assert_eq!(len, Some(8));
        let by_path = claimed_cells_by_path(&grid);
        assert_eq!(by_path[&1].len(), 8);
    }

    #[test]
    fn blocked_route_returns_none() {
        let grid = Grid::new(3, 1, 1);
        let stm = Stm::new(StmConfig::default());
        let mut ctx = stm.register();
        // Occupy the middle cell; 0 -> 2 becomes unroutable.
        ctx.atomically(TxnId(1), |tx| tx.write(&grid.cells[1], 99));
        let len = ctx.atomically(TxnId(1), |tx| grid.route(tx, (0, 0, 0), (2, 0, 0), 1));
        assert_eq!(len, None);
    }

    #[test]
    fn concurrent_routes_never_share_cells() {
        let stm = Stm::new(StmConfig::with_yield_injection(3));
        let cfg = RunConfig {
            threads: 4,
            size: InputSize::Small,
            seed: 5,
        };
        let p = params(InputSize::Small);
        let grid = Arc::new(Grid::new(p.width, p.height, p.depth));
        let routes = gen_routes(&p, cfg.seed);
        let work: TQueue<Route> = TQueue::new();
        {
            let setup = Stm::new(StmConfig::default());
            let mut ctx = setup.register_as(gstm_core::ThreadId(u16::MAX));
            for (i, &(a, b)) in routes.iter().enumerate() {
                ctx.atomically(TxnId(100), |tx| work.push(tx, (i as u32 + 1, a, b)));
            }
        }
        let grid2 = Arc::clone(&grid);
        crate::run_workers(&stm, &cfg, |_t, ctx| {
            loop {
                let item = ctx.atomically(TXN_TAKE, |tx| work.pop(tx));
                let (id, src, dst) = match item {
                    Some(x) => x,
                    None => break,
                };
                ctx.atomically(TXN_ROUTE, |tx| grid2.route(tx, src, dst, id));
            }
            0
        });
        // Each claimed cell belongs to exactly one path by construction
        // (cells store one id); check per-path contiguity instead.
        let by_path = claimed_cells_by_path(&grid);
        for (id, cells) in by_path {
            let set: std::collections::HashSet<usize> = cells.iter().copied().collect();
            // Every path must be a connected chain: each cell has 1-2
            // neighbors within its own path.
            for &i in &cells {
                let z = i / (p.width * p.height);
                let y = (i / p.width) % p.height;
                let x = i % p.width;
                let n = grid
                    .neighbors((x, y, z))
                    .into_iter()
                    .filter(|&nb| set.contains(&grid.idx(nb)))
                    .count();
                assert!(
                    (1..=2).contains(&n) || cells.len() == 1,
                    "path {id} broken at cell {i} ({n} own-neighbors)"
                );
            }
        }
    }

    #[test]
    fn full_benchmark_routes_most_paths() {
        let stm = Stm::new(StmConfig::default());
        let cfg = RunConfig {
            threads: 2,
            size: InputSize::Small,
            seed: 5,
        };
        let r = Labyrinth.run(&stm, &cfg);
        let routed = (r.checksum & 0xffff_ffff) / 1_000_000;
        let p = params(InputSize::Small);
        assert!(
            routed as usize >= p.routes / 2,
            "routed only {routed}/{}",
            p.routes
        );
    }
}
