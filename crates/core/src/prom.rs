//! The one Prometheus text codec for every exposition the workspace
//! writes and reads.
//!
//! Writers build an exposition through [`Writer`]: each family opens with
//! its one `# TYPE name kind` line, then its `name{k="v",…} value`
//! samples. Values and label values are `impl Display`, so each caller
//! keeps its own number formatting (`{:.3}` ratios, `{:#x}` addresses).
//! Label values are escaped as the text format specifies: `\`, `"` and
//! newline become `\\`, `\"` and `\n`.
//!
//! Readers use [`parse`], which takes `name{k="v",…} value` lines and
//! skips blank lines and `#` comments, so `# TYPE` lines are optional.
//! A quoted label value is read up to its closing quote, with those
//! escapes undone, so it may hold any character.

use std::fmt::{Display, Write as _};

/// A family's metric type, as its `# TYPE` line names it.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A monotonic total.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// Cumulative `le` buckets plus `_sum` and `_count`.
    Histogram,
}

/// A sample's labels: `(name, value)` pairs in exposition order.
pub type Labels<'a> = &'a [(&'a str, &'a dyn Display)];

/// An exposition under construction.
#[derive(Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// An empty exposition.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The exposition text.
    pub fn finish(self) -> String {
        self.out
    }

    /// Open family `name` with its `# TYPE` line; add its samples
    /// through the returned [`Family`].
    pub fn family<'w>(&'w mut self, name: &'w str, kind: Kind) -> Family<'w> {
        self.declare(name, kind);
        Family { w: self, name }
    }

    /// A counter family of one unlabelled sample.
    pub fn counter(&mut self, name: &str, value: impl Display) {
        self.family(name, Kind::Counter).sample(&[], value);
    }

    /// A gauge family of one unlabelled sample.
    pub fn gauge(&mut self, name: &str, value: impl Display) {
        self.family(name, Kind::Gauge).sample(&[], value);
    }

    /// A histogram family over per-bucket counts, where bucket `i` holds
    /// the samples up to `upper(i)`: cumulative `le` buckets through the
    /// one after the highest populated bucket (or the last), then
    /// `+Inf`, `_sum` and `_count`.
    pub fn histogram(
        &mut self,
        name: &str,
        buckets: &[u64],
        upper: impl Fn(usize) -> u64,
        sum: u64,
        count: u64,
    ) {
        self.declare(name, Kind::Histogram);
        let last = buckets
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| (i + 1).min(buckets.len() - 1));
        let mut cum = 0u64;
        for (i, &b) in buckets.iter().enumerate().take(last + 1) {
            cum += b;
            self.line(name, "_bucket", &[("le", &upper(i))], cum);
        }
        self.line(name, "_bucket", &[("le", &"+Inf")], count);
        self.line(name, "_sum", &[], sum);
        self.line(name, "_count", &[], count);
    }

    fn declare(&mut self, name: &str, kind: Kind) {
        let kind = match kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        };
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn line(&mut self, name: &str, suffix: &str, labels: Labels, value: impl Display) {
        let _ = write!(self.out, "{name}{suffix}");
        for (i, (k, v)) in labels.iter().enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            let _ = write!(self.out, "{open}{k}=\"");
            let _ = write!(Escaped(&mut self.out), "{v}");
            self.out.push('"');
        }
        if !labels.is_empty() {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }
}

/// Writes into the string it wraps with label-value escapes applied.
struct Escaped<'a>(&'a mut String);

impl std::fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for c in s.chars() {
            match c {
                '\\' => self.0.push_str("\\\\"),
                '"' => self.0.push_str("\\\""),
                '\n' => self.0.push_str("\\n"),
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// An open family of a [`Writer`]: its samples follow its `# TYPE` line.
pub struct Family<'w> {
    w: &'w mut Writer,
    name: &'w str,
}

impl Family<'_> {
    /// Add the sample `name{labels} value`.
    pub fn sample(&mut self, labels: Labels, value: impl Display) {
        self.w.line(self.name, "", labels, value);
    }
}

/// One sample of a parsed exposition.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name; a histogram's samples carry their `_bucket`,
    /// `_sum` or `_count` suffix.
    pub name: String,
    /// Label pairs, in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// A parsed exposition: its samples in document order.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    /// Every sample line.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// Samples of `name` carrying every label in `labels`.
    fn matching<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&str, &str)],
    ) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples.iter().filter(move |s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
    }

    /// First sample of `name` carrying every label in `labels`.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.matching(name, labels).next().map(|s| s.value)
    }

    /// Sum of every sample of `name` carrying every label in `labels`.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.matching(name, labels).map(|s| s.value).sum()
    }

    /// All samples of `name`.
    pub fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Sample> + 'a {
        self.matching(name, &[])
    }
}

/// Parse a text exposition: `name{k="v",…} value` lines, with blank
/// lines and `#` comments skipped. The error names the 1-based line.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut samples = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("prom line {}: {what}: {raw}", n + 1);
        let (series, value) = line.rsplit_once(' ').ok_or_else(|| err("missing value"))?;
        let value: f64 = value.parse().map_err(|_| err("bad value"))?;
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated labels"))?;
                (name.to_string(), parse_labels(body).map_err(err)?)
            }
        };
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(Exposition { samples })
}

/// Parse the `k="v",…` body of a label set, undoing the value escapes.
fn parse_labels(mut body: &str) -> Result<Vec<(String, String)>, &'static str> {
    let mut labels = Vec::new();
    while !body.is_empty() {
        let (k, rest) = body.split_once('=').ok_or("bad label")?;
        let mut chars = rest.strip_prefix('"').ok_or("unquoted label value")?.char_indices();
        let mut v = String::new();
        let end = loop {
            match chars.next().ok_or("unterminated label value")? {
                (i, '"') => break i,
                (_, '\\') => v.push(match chars.next().ok_or("unterminated label value")?.1 {
                    'n' => '\n',
                    c @ ('\\' | '"') => c,
                    _ => return Err("bad escape in label value"),
                }),
                (_, c) => v.push(c),
            }
        };
        labels.push((k.to_string(), v));
        body = &rest[end + 2..];
        body = match body.strip_prefix(',') {
            Some(next) => next,
            None if body.is_empty() => body,
            None => return Err("bad label"),
        };
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_type_lines_labels_and_caller_formatting() {
        let mut w = Writer::new();
        w.counter("a_total", 3);
        let mut f = w.family("b", Kind::Gauge);
        f.sample(
            &[("window", &0), ("outcome", &"passed")],
            format_args!("{:.3}", 12.5),
        );
        f.sample(&[("addr", &format_args!("{:#x}", 0xab00))], 1);
        assert_eq!(
            w.finish(),
            "# TYPE a_total counter\na_total 3\n# TYPE b gauge\n\
             b{window=\"0\",outcome=\"passed\"} 12.500\nb{addr=\"0xab00\"} 1\n"
        );
    }

    #[test]
    fn histogram_stops_one_bucket_past_the_highest_populated() {
        let mut w = Writer::new();
        w.histogram("h", &[1, 0, 2, 0, 0], |i| (1 << i) - 1, 9, 3);
        assert_eq!(
            w.finish(),
            "# TYPE h histogram\nh_bucket{le=\"0\"} 1\nh_bucket{le=\"1\"} 1\n\
             h_bucket{le=\"3\"} 3\nh_bucket{le=\"7\"} 3\nh_bucket{le=\"+Inf\"} 3\n\
             h_sum 9\nh_count 3\n"
        );
        let mut w = Writer::new();
        w.histogram("e", &[0, 0], |i| i as u64, 0, 0);
        let text = w.finish();
        assert!(
            text.contains("e_bucket{le=\"0\"} 0\ne_bucket{le=\"+Inf\"} 0\n"),
            "{text}"
        );
        let mut w = Writer::new();
        w.histogram("top", &[0, 4], |i| i as u64, 4, 4);
        assert!(w
            .finish()
            .contains("top_bucket{le=\"1\"} 4\ntop_bucket{le=\"+Inf\"} 4\n"));
    }

    #[test]
    fn reader_round_trips_the_writer() {
        let mut w = Writer::new();
        w.gauge("g", 1.5);
        let mut f = w.family("c_total", Kind::Counter);
        f.sample(&[("t", &0), ("cause", &"x")], 2);
        f.sample(&[("t", &1), ("cause", &"x")], 3);
        w.histogram("h", &[1], |_| 0, 0, 1);
        let p = parse(&w.finish()).unwrap();
        assert_eq!(p.get("g", &[]), Some(1.5));
        assert_eq!(p.sum("c_total", &[("cause", "x")]), 5.0);
        assert_eq!(p.get("c_total", &[("t", "1")]), Some(3.0));
        assert_eq!(p.family("h_bucket").count(), 2);
        assert_eq!(p.get("h_count", &[]), Some(1.0));
        assert_eq!(p.get("missing", &[]), None);
    }

    #[test]
    fn label_values_with_special_characters_round_trip() {
        let values = [
            "a,b=c",
            "{x}",
            "two words",
            "back\\slash",
            "say \"hi\"",
            "line\nbreak",
            "\\\"} 9",
            "",
        ];
        let mut w = Writer::new();
        let mut f = w.family("m", Kind::Gauge);
        for (i, v) in values.iter().enumerate() {
            f.sample(&[("v", v), ("i", &i)], i);
        }
        let text = w.finish();
        assert!(text.contains(r#"m{v="back\\slash",i="3"} 3"#), "{text}");
        assert!(text.contains(r#"m{v="say \"hi\"",i="4"} 4"#), "{text}");
        assert!(text.contains(r#"m{v="line\nbreak",i="5"} 5"#), "{text}");
        assert_eq!(text.lines().count(), values.len() + 1, "one line per sample");
        let p = parse(&text).unwrap();
        for (i, v) in values.iter().enumerate() {
            let want = vec![("v".to_string(), v.to_string()), ("i".to_string(), i.to_string())];
            assert_eq!(p.samples[i].labels, want);
            assert_eq!(p.samples[i].value, i as f64);
        }
    }

    #[test]
    fn reader_skips_comments_and_names_the_bad_line() {
        let p = parse("# HELP x y\n\nx 1\n").unwrap();
        assert_eq!(p.samples.len(), 1);
        for (bad, what) in [
            ("x", "missing value"),
            ("x one", "bad value"),
            ("x{a=\"1\" 1", "unterminated labels"),
            ("x{a} 1", "bad label"),
            ("x{a=1} 1", "unquoted label value"),
            ("x{a=\"1} 1", "unterminated label value"),
            ("x{a=\"\\t\"} 1", "bad escape in label value"),
            ("x{a=\"1\"b=\"2\"} 1", "bad label"),
        ] {
            let err = parse(&format!("ok 1\n{bad}\n")).unwrap_err();
            assert!(err.starts_with(&format!("prom line 2: {what}")), "{err}");
        }
    }
}
