//! A small in-memory span recorder for the traced run.
//!
//! Spans are recorded around the calls into each layer, from the
//! benchmark's own code (nothing under `crates/` is instrumented): name,
//! start, end, the span that caused it, and the request they belong to.
//! They stay in memory until the run ends and are then flushed to
//! `trace-<workload>.json`. A layer's *self time* is its spans' duration
//! minus the part their child spans cover. With the recorder off,
//! `enter`/`exit` do nothing — the same replay run that way is the
//! baseline the tracing overhead is measured against.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Span names, in the order a request passes through them.
pub const NAMES: [&str; 10] = [
    "request",
    "wire.encode_req",
    "wire.assemble",
    "wire.decode_req",
    "storage.append",
    "storage.sync",
    "core.apply",
    "storage.checkpoint",
    "wire.encode_resp",
    "wire.decode_resp",
];

/// Index into [`NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Request = 0,
    EncodeReq,
    Assemble,
    DecodeReq,
    Append,
    Sync,
    Apply,
    Checkpoint,
    EncodeResp,
    DecodeResp,
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u8,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// Request number; spans of one request share it.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::with_capacity(4),
            request: 0,
        }
    }

    /// Subsequent spans belong to request `n`.
    pub fn set_request(&mut self, n: u32) {
        self.request = n;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: Name) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name as u8,
            parent,
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Per span, its duration minus what its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_by_name_ns(&self) -> [u64; NAMES.len()] {
        let mut total = [0u64; NAMES.len()];
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            total[s.name as usize] += own;
        }
        total
    }

    /// Writes the spans as JSON: a `names` table and one
    /// `[name, start_ns, end_ns, parent, request]` row per span (`parent`
    /// is a row index, -1 for a root). At most `limit` rows are written;
    /// `dropped` says how many were left out.
    pub fn flush(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = NAMES.iter().map(|n| format!("\"{n}\"")).collect();
        let kept = self.spans.len().min(limit);
        writeln!(
            f,
            "{{\"names\": [{}], \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \
             \"request\"], \"dropped\": {}, \"spans\": [",
            names.join(", "),
            self.spans.len() - kept
        )?;
        for (i, s) in self.spans[..kept].iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == kept { "" } else { "," };
            writeln!(
                f,
                "[{}, {}, {}, {parent}, {}]{sep}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.set_request(7);
        r.enter(Name::Request);
        r.enter(Name::Apply);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit();
        r.exit();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, 0);
        assert_eq!(r.spans[1].request, 7);
        let own = r.self_times_ns();
        assert_eq!(own[1], r.spans[1].dur_ns());
        assert_eq!(own[0], r.spans[0].dur_ns() - r.spans[1].dur_ns());
        let by_name = r.self_time_by_name_ns();
        assert_eq!(by_name[Name::Apply as usize], own[1]);
    }

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::new(false);
        r.enter(Name::Request);
        r.exit();
        assert!(r.spans.is_empty());
    }
}
