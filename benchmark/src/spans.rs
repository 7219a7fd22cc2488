//! The benchmark's own in-memory span recorder for the traced run.
//!
//! Spans wrap only calls into the workspace's public functions (see
//! `sut.rs`); nothing is recorded inside any crate. Each span carries its
//! name, start, end, the span that caused it, and the step it belongs to;
//! counts are recorded at the same boundaries. Everything stays in memory
//! until the run ends, when [`chrome_json`] serialises it for
//! `chrome://tracing` / Perfetto.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `nn.train_step`; the prefix is the crate name.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Optimizer step the span belongs to (the shared identifier).
    pub step: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to [`Recorder::end`].
#[must_use = "a span must be ended"]
pub struct Open(usize);

/// Records spans on one thread with an explicit open-span stack.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    step: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            step: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the step identifier stamped on spans opened from now on.
    pub fn set_step(&mut self, step: usize) {
        self.step = step as u32;
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            step: self.step,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost-first");
        self.spans[open.0].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Adds `n` to the count recorded under `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every count recorded so far.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

/// Self time of span `idx` in ms: its duration minus the part of its
/// interval that its direct children cover. Children are clipped to the
/// parent and overlapping children are counted once.
pub fn self_ms(spans: &[Span], idx: usize) -> f64 {
    let parent = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in kids {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    (parent.end_ns - parent.start_ns - covered) as f64 / 1e6
}

/// Duration in ms of every span called `name` in steps `from_step..`, in
/// recording order.
pub fn durations_ms(spans: &[Span], name: &str, from_step: usize) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.step as usize >= from_step)
        .map(Span::ms)
        .collect()
}

/// Per step, the summed duration in ms of the spans called `name`, for
/// steps `from_step..` in step order. Steps without such a span read 0.
pub fn per_step_ms(spans: &[Span], name: &str, from_step: usize) -> Vec<f64> {
    let mut by_step: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if s.step as usize >= from_step {
            let slot = by_step.entry(s.step).or_insert(0.0);
            if s.name == name {
                *slot += s.ms();
            }
        }
    }
    by_step.into_values().collect()
}

/// Per step, the self time in ms of the span called `name` (one per step).
pub fn per_step_self_ms(spans: &[Span], name: &str, from_step: usize) -> Vec<f64> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name && s.step as usize >= from_step)
        .map(|(i, _)| self_ms(spans, i))
        .collect()
}

/// Chrome `trace_event` JSON: one complete (`ph: "X"`) slice per span with
/// its step and parent in `args`, and the counts as one metadata record.
/// Span names are static identifiers, so no string escaping is needed.
pub fn chrome_json(spans: &[Span], counts: &BTreeMap<&'static str, u64>) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let cat = s.name.split('.').next().unwrap_or("bench");
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"step\":{}}}}},\n",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.step,
        ));
    }
    let counts: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    out.push_str(&format!(
        "{{\"name\":\"counts\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{{}}}}}\n]}}\n",
        counts.join(",")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let spans = [
            span("step", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        assert_eq!(self_ms(&spans, 0), 50.0);
        assert_eq!(self_ms(&spans, 1), 20.0);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        // The grandchild shortens its parent's self time, not the root's.
        let spans = [
            span("step", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 40, Some(1)),
        ];
        assert_eq!(self_ms(&spans, 0), 50.0);
        assert_eq!(self_ms(&spans, 1), 30.0);
        assert_eq!(self_ms(&spans, 2), 20.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = [
            span("step", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),   // overlaps a by 20
            span("c", 50, 55, Some(0)),   // inside a∩b
            span("d", 100, 130, Some(0)), // runs past the parent's end
        ];
        // Covered: [20, 80) ∪ [100, 110) = 70 of 100.
        assert_eq!(self_ms(&spans, 0), 30.0);
    }

    #[test]
    fn recorder_nests_by_open_order_and_stamps_steps() {
        let mut rec = Recorder::new();
        rec.set_step(3);
        let step = rec.begin("lm.step");
        rec.time("nn.train_step", || ());
        rec.time("nn.train_step", || ());
        rec.end(step);
        rec.count("lm.micro_batches", 2);
        rec.count("lm.micro_batches", 2);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.step == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(rec.counts()["lm.micro_batches"], 4);
        assert_eq!(durations_ms(spans, "nn.train_step", 0).len(), 2);
    }

    #[test]
    fn per_step_totals_sum_repeated_spans_and_skip_warm_up() {
        let mut spans = vec![
            span("lm.step", 0, 10, None),
            span("nn.train_step", 1, 3, Some(0)),
            span("nn.train_step", 4, 7, Some(0)),
            span("lm.step", 10, 30, None),
            span("nn.train_step", 11, 21, Some(3)),
        ];
        for s in &mut spans[3..] {
            s.step = 1;
        }
        assert_eq!(per_step_ms(&spans, "nn.train_step", 0), vec![5.0, 10.0]);
        assert_eq!(per_step_ms(&spans, "nn.train_step", 1), vec![10.0]);
        assert_eq!(per_step_ms(&spans, "optim.fold", 0), vec![0.0, 0.0]);
        assert_eq!(per_step_self_ms(&spans, "lm.step", 0), vec![5.0, 10.0]);
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let spans = [
            span("lm.step", 0, 2, None),
            span("nn.train_step", 0, 1, Some(0)),
        ];
        let mut counts = BTreeMap::new();
        counts.insert("lm.steps", 1u64);
        let text = chrome_json(&spans, &counts);
        let json = serde_json::from_str(&text).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("nn"));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1000.0));
    }
}
