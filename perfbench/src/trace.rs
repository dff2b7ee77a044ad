//! Benchmark-side spans: a span around every call the benchmark makes
//! into a layer, kept in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Times calls and, when enabled, records each as a span whose parent
/// is the innermost span open around it.
pub struct Spans {
    enabled: bool,
    anchor: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            anchor: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f`, returning its result and its wall time in seconds; a
    /// span named `name` covers the call when recording is enabled.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let started = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns: started.duration_since(self.anchor).as_nanos() as u64,
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let ended = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_ns = ended.duration_since(self.anchor).as_nanos() as u64;
        }
        (out, ended.duration_since(started).as_secs_f64())
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `header` (one JSON object) and then the spans as JSON
    /// lines `{id, parent, name, start_ns, end_ns}` to `path`, creating
    /// its directory.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_name_their_parent() {
        let mut spans = Spans::new(true);
        spans.time("outer", |s| {
            s.time("inner", |_| ());
        });
        spans.time("next", |_| ());
        let parents: Vec<_> = spans.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("outer", None), ("inner", Some(0)), ("next", None)]
        );
        assert!(spans.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_spans_still_time() {
        let mut spans = Spans::new(false);
        let (v, secs) = spans.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(spans.len(), 0);
    }
}
