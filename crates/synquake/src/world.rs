//! The game world: players and the spatial cell grid.

use gstm_core::rng::mix64;
use gstm_core::TxResult;
use gstm_libtm::{LtTxn, TObject};

/// One player's mutable state.
#[derive(Clone, Debug)]
pub struct Player {
    /// Map position.
    pub x: u32,
    /// Map position.
    pub y: u32,
    /// Hit points; respawns at 100 when reduced to 0.
    pub hp: i32,
    /// Frags scored.
    pub score: u32,
    /// Which quest (0..4) this player is drawn to.
    pub(crate) quest: usize,
}

/// The shared world: a `size`×`size` map partitioned into square cells of
/// `cell_size`, each holding the ids of the players inside it, plus one
/// object per player. Fine-grained, object-level consistency — SynQuake's
/// design point versus a lock-based server.
pub struct World {
    /// Map edge length.
    size: u32,
    /// Cell edge length.
    cell_size: u32,
    cells_per_row: u32,
    /// Cell occupancy lists.
    pub cells: Vec<TObject<Vec<u32>>>,
    /// Items lying in each cell (health packs / ammo in the original;
    /// here an opaque item id).
    items: Vec<TObject<Vec<u32>>>,
    /// Player objects.
    pub players: Vec<TObject<Player>>,
}

impl World {
    /// Create a world and place `players` deterministically (spread on a
    /// diagonal lattice), assigning quests round-robin.
    pub fn new(size: u32, cell_size: u32, players: u32, seed: u64) -> Self {
        let cells_per_row = size.div_ceil(cell_size);
        let n_cells = (cells_per_row * cells_per_row) as usize;
        let mut world = World {
            size,
            cell_size,
            cells_per_row,
            cells: (0..n_cells).map(|_| TObject::new(Vec::new())).collect(),
            items: (0..n_cells).map(|_| TObject::new(Vec::new())).collect(),
            players: Vec::new(),
        };
        for id in 0..players {
            let r = mix64(seed ^ id as u64);
            let x = (r % size as u64) as u32;
            let y = (mix64(r) % size as u64) as u32;
            let p = Player {
                x,
                y,
                hp: 100,
                score: 0,
                quest: (id % 4) as usize,
            };
            // Initial placement is setup-time: write the committed state
            // directly.
            let cell = world.cell_index(x, y);
            let mut occupants = world.cells[cell].load_quiesced();
            occupants.push(id);
            world.cells[cell] = TObject::new(occupants);
            world.players.push(TObject::new(p));
        }
        world
    }

    /// The cell containing `(x, y)`.
    #[inline]
    pub fn cell_index(&self, x: u32, y: u32) -> usize {
        let cx = (x / self.cell_size).min(self.cells_per_row - 1);
        let cy = (y / self.cell_size).min(self.cells_per_row - 1);
        (cy * self.cells_per_row + cx) as usize
    }

    /// Number of cells per row.
    pub fn cells_per_row(&self) -> u32 {
        self.cells_per_row
    }

    /// Transactionally move player `id` to `(nx, ny)`, updating the cell
    /// occupancy lists.
    pub fn move_player(
        &self,
        tx: &mut LtTxn,
        id: u32,
        nx: u32,
        ny: u32,
    ) -> TxResult<()> {
        let pobj = &self.players[id as usize];
        let mut p = tx.read(pobj)?;
        let old_cell = self.cell_index(p.x, p.y);
        let new_cell = self.cell_index(nx, ny);
        if old_cell != new_cell {
            let mut old = tx.read(&self.cells[old_cell])?;
            old.retain(|&o| o != id);
            tx.write(&self.cells[old_cell], old)?;
            let mut new = tx.read(&self.cells[new_cell])?;
            if !new.contains(&id) {
                new.push(id);
            }
            tx.write(&self.cells[new_cell], new)?;
        }
        p.x = nx;
        p.y = ny;
        tx.write(pobj, p)?;
        Ok(())
    }

    /// Transactionally attack another player in `id`'s cell (chosen by
    /// `pick`), dealing `damage`. Returns the victim id if a hit landed;
    /// a kill respawns the victim and scores the attacker.
    pub fn attack(
        &self,
        tx: &mut LtTxn,
        id: u32,
        damage: i32,
        pick: u64,
    ) -> TxResult<Option<u32>> {
        let pobj = &self.players[id as usize];
        let p = tx.read(pobj)?;
        let cell = self.cell_index(p.x, p.y);
        let occupants = tx.read(&self.cells[cell])?;
        let targets: Vec<u32> = occupants.into_iter().filter(|&o| o != id).collect();
        if targets.is_empty() {
            return Ok(None);
        }
        let victim = targets[(pick % targets.len() as u64) as usize];
        let vobj = &self.players[victim as usize];
        let mut v = tx.read(vobj)?;
        v.hp -= damage;
        let killed = v.hp <= 0;
        if killed {
            v.hp = 100;
        }
        tx.write(vobj, v)?;
        if killed {
            let mut me = tx.read(pobj)?;
            me.score += 1;
            tx.write(pobj, me)?;
        }
        Ok(Some(victim))
    }

    /// Scatter `count` items across the map. Setup-time only (takes
    /// `&mut self`: the world is not yet shared with worker threads).
    pub fn spawn_items(&mut self, count: u32, seed: u64) {
        for item in 0..count {
            let r = mix64(seed ^ 0x17e5 ^ item as u64);
            let x = (r % self.size as u64) as u32;
            let y = (mix64(r) % self.size as u64) as u32;
            let cell = self.cell_index(x, y);
            let mut items = self.items[cell].load_quiesced();
            items.push(item);
            self.items[cell] = TObject::new(items);
        }
    }

    /// Transactionally pick up one item from `id`'s cell, if any,
    /// restoring up to 10 hp (the original's "eat/pickup" action).
    /// Returns the item id taken.
    pub fn pickup(&self, tx: &mut LtTxn, id: u32) -> TxResult<Option<u32>> {
        let pobj = &self.players[id as usize];
        let mut p = tx.read(pobj)?;
        let cell = self.cell_index(p.x, p.y);
        let mut items = tx.read(&self.items[cell])?;
        match items.pop() {
            Some(item) => {
                tx.write(&self.items[cell], items)?;
                p.hp = (p.hp + 10).min(100);
                tx.write(pobj, p)?;
                Ok(Some(item))
            }
            None => Ok(None),
        }
    }

    /// Quiesced audit: every player appears in exactly the cell its
    /// position maps to. Returns the number of inconsistencies.
    pub fn audit(&self) -> usize {
        let mut bad = 0;
        let occupancy: Vec<Vec<u32>> = self.cells.iter().map(|c| c.load_quiesced()).collect();
        for (id, pobj) in self.players.iter().enumerate() {
            let p = pobj.load_quiesced();
            let cell = self.cell_index(p.x, p.y);
            let here = occupancy[cell].iter().filter(|&&o| o == id as u32).count();
            if here != 1 {
                bad += 1;
                continue;
            }
            let elsewhere: usize = occupancy
                .iter()
                .enumerate()
                .filter(|&(c, _)| c != cell)
                .map(|(_, occ)| occ.iter().filter(|&&o| o == id as u32).count())
                .sum();
            if elsewhere != 0 {
                bad += 1;
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{ThreadId, TxnId};
    use gstm_libtm::{LibTm, LibTmConfig};

    impl World {
        /// Total items remaining on the map (quiesced).
        fn items_remaining(&self) -> usize {
            self.items.iter().map(|c| c.load_quiesced().len()).sum()
        }
    }

    #[test]
    fn construction_places_every_player_once() {
        let w = World::new(256, 64, 50, 9);
        assert_eq!(w.players.len(), 50);
        assert_eq!(w.audit(), 0);
        let total: usize = w.cells.iter().map(|c| c.load_quiesced().len()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn cell_index_covers_the_map() {
        let w = World::new(256, 64, 0, 0);
        assert_eq!(w.cells_per_row(), 4);
        assert_eq!(w.cell_index(0, 0), 0);
        assert_eq!(w.cell_index(255, 255), 15);
        assert_eq!(w.cell_index(64, 0), 1);
        assert_eq!(w.cell_index(0, 64), 4);
    }

    #[test]
    fn move_updates_cells_consistently() {
        let w = World::new(256, 64, 4, 9);
        let tm = LibTm::new(LibTmConfig::default());
        let mut ctx = tm.register_as(ThreadId(0));
        ctx.atomically(TxnId(0), |tx| w.move_player(tx, 0, 255, 255));
        assert_eq!(w.audit(), 0);
        let p = w.players[0].load_quiesced();
        assert_eq!((p.x, p.y), (255, 255));
    }

    #[test]
    fn attack_hits_a_cell_mate_and_scores_kills() {
        let w = World::new(256, 64, 2, 9);
        let tm = LibTm::new(LibTmConfig::default());
        let mut ctx = tm.register_as(ThreadId(0));
        // Put both players in the same cell.
        ctx.atomically(TxnId(0), |tx| w.move_player(tx, 0, 10, 10));
        ctx.atomically(TxnId(0), |tx| w.move_player(tx, 1, 12, 12));
        // 100 hp / 30 damage -> fourth hit kills.
        for _ in 0..3 {
            let hit = ctx.atomically(TxnId(1), |tx| w.attack(tx, 0, 30, 0));
            assert_eq!(hit, Some(1));
        }
        let hit = ctx.atomically(TxnId(1), |tx| w.attack(tx, 0, 30, 0));
        assert_eq!(hit, Some(1));
        let victim = w.players[1].load_quiesced();
        assert_eq!(victim.hp, 100, "victim respawned");
        let attacker = w.players[0].load_quiesced();
        assert_eq!(attacker.score, 1);
    }

    #[test]
    fn items_spawn_and_get_picked_up() {
        let mut w = World::new(256, 64, 1, 9);
        w.spawn_items(20, 5);
        assert_eq!(w.items_remaining(), 20);
        let tm = LibTm::new(LibTmConfig::default());
        let mut ctx = tm.register_as(ThreadId(0));
        // Damage the player, then walk it over every cell picking up.
        ctx.atomically(TxnId(1), |tx| {
            let mut p = tx.read(&w.players[0])?;
            p.hp = 50;
            tx.write(&w.players[0], p)
        });
        let mut picked = 0;
        for cy in 0..4u32 {
            for cx in 0..4u32 {
                ctx.atomically(TxnId(0), |tx| {
                    w.move_player(tx, 0, cx * 64 + 5, cy * 64 + 5)
                });
                while let Some(_item) =
                    ctx.atomically(TxnId(2), |tx| w.pickup(tx, 0))
                {
                    picked += 1;
                }
            }
        }
        assert_eq!(picked, 20, "every item reachable");
        assert_eq!(w.items_remaining(), 0);
        let p = w.players[0].load_quiesced();
        assert_eq!(p.hp, 100, "hp restored and capped");
        assert_eq!(w.audit(), 0);
    }

    #[test]
    fn pickup_in_empty_cell_returns_none() {
        let mut w = World::new(256, 64, 1, 9);
        w.spawn_items(0, 5);
        let tm = LibTm::new(LibTmConfig::default());
        let mut ctx = tm.register_as(ThreadId(0));
        let got = ctx.atomically(TxnId(2), |tx| w.pickup(tx, 0));
        assert_eq!(got, None);
    }

    #[test]
    fn attack_alone_in_cell_misses() {
        let w = World::new(256, 64, 2, 9);
        let tm = LibTm::new(LibTmConfig::default());
        let mut ctx = tm.register_as(ThreadId(0));
        ctx.atomically(TxnId(0), |tx| w.move_player(tx, 0, 10, 10));
        ctx.atomically(TxnId(0), |tx| w.move_player(tx, 1, 200, 200));
        let hit = ctx.atomically(TxnId(1), |tx| w.attack(tx, 0, 30, 0));
        assert_eq!(hit, None);
    }
}
