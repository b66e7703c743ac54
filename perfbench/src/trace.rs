//! Spans the benchmark records around each public call it makes into the
//! cf2df crates. A span has a name (the layer metric prefix), a start, an
//! end, a parent span and the id of the program or request it serves;
//! counts observed at the call ride on the span. Spans stay in memory
//! and are written out when the run ends. Nothing inside the program is
//! traced.

use cf2df_bench::json::Obj;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer started.
pub struct Span {
    pub name: String,
    pub id: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

/// Handle of an open span: `None` when tracing is off, so an untraced
/// run pays one branch per call site.
#[must_use = "a span must be closed"]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off between rounds (no span may be open).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str, id: u32) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            id,
            parent: self.stack.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open, counts: &[(&'static str, f64)]) {
        let Some(idx) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.counts.extend_from_slice(counts);
    }

    /// Record already-timed steps (the pass records a translation
    /// returns) as children of `parent`, laid end to end from its start:
    /// their durations are measured, their offsets are not.
    pub fn children<I>(&mut self, parent: &Open, steps: I)
    where
        I: IntoIterator<Item = (String, Duration, Vec<(&'static str, f64)>)>,
    {
        let Some(p) = parent.0 else { return };
        let (id, mut at) = (self.spans[p].id, self.spans[p].start_ns);
        for (name, wall, counts) in steps {
            let end = at + wall.as_nanos() as u64;
            self.spans.push(Span {
                name,
                id,
                parent: Some(p),
                start_ns: at,
                end_ns: end,
                counts,
            });
            at = end;
        }
    }

    /// Per-span self time: its duration minus that of its direct
    /// children.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Group the recorded spans by name.
    pub fn layers(&self) -> Layers {
        let mut groups: BTreeMap<String, Group> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let g = groups.entry(s.name.clone()).or_default();
            g.incl_ns.push((s.end_ns - s.start_ns) as f64);
            g.self_ns.push(own as f64);
            for &(k, v) in &s.counts {
                g.counts.entry(k).or_default().push(v);
            }
        }
        Layers { groups }
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let mut counts = Obj::new();
            for &(k, v) in &s.counts {
                counts.float(k, v);
            }
            let mut o = Obj::new();
            o.str("name", &s.name).num("id", s.id);
            match s.parent {
                Some(p) => o.num("parent", p as u64),
                None => o.raw("parent", "null"),
            };
            o.num("start_ns", s.start_ns)
                .num("end_ns", s.end_ns)
                .num("self_ns", own)
                .raw("counts", &counts.finish());
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

#[derive(Default)]
pub struct Group {
    pub incl_ns: Vec<f64>,
    pub self_ns: Vec<f64>,
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

/// Recorded spans grouped by name.
pub struct Layers {
    groups: BTreeMap<String, Group>,
}

impl Layers {
    pub fn group(&self, name: &str) -> &Group {
        self.groups
            .get(name)
            .unwrap_or_else(|| panic!("no span named {name} was recorded"))
    }

    pub fn count(&self, name: &str, key: &str) -> &[f64] {
        self.group(name)
            .counts
            .get(key)
            .unwrap_or_else(|| panic!("no {key} count on {name} spans"))
    }

    pub fn count_sum(&self, name: &str, key: &str) -> f64 {
        self.count(name, key).iter().sum()
    }

    pub fn count_mean(&self, name: &str, key: &str) -> f64 {
        let xs = self.count(name, key);
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    pub fn count_max(&self, name: &str, key: &str) -> f64 {
        self.count(name, key)
            .iter()
            .copied()
            .fold(f64::MIN, f64::max)
    }
}
