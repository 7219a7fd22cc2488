//! Execution timelines: the simulator's Nsight-profile equivalent.

use pipefisher_pipeline::WorkKind;

/// One busy interval on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Executing device.
    pub device: usize,
    /// Start time.
    pub start: f64,
    /// End time (`end >= start`).
    pub end: f64,
    /// Work kind executed.
    pub kind: WorkKind,
    /// Pipeline stage the work belongs to.
    pub stage: usize,
    /// Micro-batch, when per-micro-batch.
    pub micro_batch: Option<usize>,
}

impl Interval {
    /// Interval length.
    pub fn len(&self) -> f64 {
        self.end - self.start
    }

    /// Whether the interval is zero-length.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A per-device execution profile over one or more pipeline steps.
///
/// The paper's "GPU utilization" (Appendix B.4: fraction of the window in
/// which some kernel executes) is [`Timeline::utilization`]; its bubbles
/// (idle gaps) drive PipeFisher's work assignment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    intervals: Vec<Interval>,
    n_devices: usize,
}

impl Timeline {
    /// Creates an empty timeline over `n_devices` devices.
    pub fn new(n_devices: usize) -> Self {
        Timeline {
            intervals: Vec::new(),
            n_devices,
        }
    }

    /// Adds an interval.
    ///
    /// # Panics
    ///
    /// Panics if the device is out of range or `end < start`.
    pub fn push(&mut self, interval: Interval) {
        assert!(
            interval.device < self.n_devices,
            "Timeline::push: device out of range"
        );
        assert!(
            interval.end >= interval.start - 1e-12,
            "Timeline::push: negative interval"
        );
        self.intervals.push(interval);
    }

    /// All intervals (unsorted).
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Latest interval end (0 for an empty timeline).
    pub fn makespan(&self) -> f64 {
        self.intervals.iter().map(|i| i.end).fold(0.0, f64::max)
    }

    /// Earliest interval start (0 for an empty timeline).
    pub fn first_start(&self) -> f64 {
        let earliest = self
            .intervals
            .iter()
            .map(|i| i.start)
            .fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            earliest
        } else {
            0.0
        }
    }

    /// Total busy time of one device.
    pub fn device_busy(&self, device: usize) -> f64 {
        self.intervals
            .iter()
            .filter(|i| i.device == device)
            .map(Interval::len)
            .sum()
    }

    /// Busy fraction over the window `[0, makespan]` across all devices —
    /// the paper's "GPU utilization".
    pub fn utilization(&self) -> f64 {
        let span = self.makespan();
        if span <= 0.0 || self.n_devices == 0 {
            return 0.0;
        }
        let busy: f64 = self.intervals.iter().map(Interval::len).sum();
        busy / (span * self.n_devices as f64)
    }

    /// Utilization over an explicit window `[t0, t1]` (intervals clipped).
    pub fn utilization_in(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 > t0, "utilization_in: empty window");
        let mut busy = 0.0;
        for i in &self.intervals {
            let s = i.start.max(t0);
            let e = i.end.min(t1);
            if e > s {
                busy += e - s;
            }
        }
        busy / ((t1 - t0) * self.n_devices as f64)
    }

    /// Idle gaps ("bubbles") of one device within `[0, horizon]`, merged and
    /// sorted. Gaps shorter than `1e-9` are dropped.
    pub fn bubbles(&self, device: usize, horizon: f64) -> Vec<(f64, f64)> {
        let mut busy: Vec<(f64, f64)> = self
            .intervals
            .iter()
            .filter(|i| i.device == device && !i.is_empty())
            .map(|i| (i.start, i.end))
            .collect();
        busy.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut gaps = Vec::new();
        let mut cursor = 0.0;
        for (s, e) in busy {
            if s > cursor + 1e-9 {
                gaps.push((cursor, s.min(horizon)));
            }
            cursor = cursor.max(e);
            if cursor >= horizon {
                break;
            }
        }
        if cursor + 1e-9 < horizon {
            gaps.push((cursor, horizon));
        }
        gaps.retain(|(s, e)| e - s > 1e-9);
        gaps
    }

    /// Total bubble time across all devices within `[0, horizon]`.
    pub fn total_bubble(&self, horizon: f64) -> f64 {
        (0..self.n_devices)
            .map(|d| {
                self.bubbles(d, horizon)
                    .iter()
                    .map(|(s, e)| e - s)
                    .sum::<f64>()
            })
            .sum()
    }

    /// Merges another timeline (same device count) into this one.
    ///
    /// # Panics
    ///
    /// Panics if device counts differ.
    pub fn merge(&mut self, other: &Timeline) {
        assert_eq!(
            self.n_devices, other.n_devices,
            "Timeline::merge: device counts"
        );
        self.intervals.extend(other.intervals.iter().cloned());
    }

    /// Verifies no two intervals on the same device overlap (within `tol`).
    pub fn is_overlap_free(&self, tol: f64) -> bool {
        for d in 0..self.n_devices {
            let mut ivs: Vec<(f64, f64)> = self
                .intervals
                .iter()
                .filter(|i| i.device == d && !i.is_empty())
                .map(|i| (i.start, i.end))
                .collect();
            ivs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in ivs.windows(2) {
                if w[0].1 > w[1].0 + tol {
                    return false;
                }
            }
        }
        true
    }

    /// Intervals in canonical rendering order — by `(device, start, end,
    /// kind label)` — the single sort all exporters ([`Timeline::to_csv`],
    /// [`Timeline::render_ascii`], [`Timeline::chrome_trace_events`]) share,
    /// so every view of a timeline lists the same intervals in the same
    /// order regardless of push order.
    pub fn sorted_intervals(&self) -> Vec<&Interval> {
        let mut sorted: Vec<&Interval> = self.intervals.iter().collect();
        sorted.sort_by(|a, b| {
            (a.device, a.start, a.end, a.kind.label())
                .partial_cmp(&(b.device, b.start, b.end, b.kind.label()))
                .expect("finite times")
        });
        sorted
    }

    /// Serializes the timeline as CSV
    /// (`device,start,end,kind,stage,micro_batch` with a header row), for
    /// external plotting of the profile figures.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("device,start,end,kind,stage,micro_batch\n");
        for i in self.sorted_intervals() {
            let mb = i.micro_batch.map_or(String::new(), |m| m.to_string());
            out.push_str(&format!(
                "{},{:.9},{:.9},{},{},{}\n",
                i.device,
                i.start,
                i.end,
                i.kind.label(),
                i.stage,
                mb
            ));
        }
        out
    }

    /// Renders the timeline as ASCII art, one row per device, `width`
    /// characters across the full makespan — the reproduction's version of
    /// the paper's Nsight timeline figures. Work kinds are drawn with the
    /// first character of their label (`F`, `B`, `C`, `I`, `P`, `S`, `R`);
    /// idle time is `·`.
    pub fn render_ascii(&self, width: usize) -> String {
        let span = self.makespan();
        if span <= 0.0 || width == 0 {
            return String::new();
        }
        let sorted = self.sorted_intervals();
        let mut out = String::new();
        for d in 0..self.n_devices {
            let mut row = vec!['·'; width];
            for i in sorted.iter().filter(|i| i.device == d) {
                let c = i.kind.label().chars().next().unwrap_or('?');
                let s = ((i.start / span) * width as f64).floor() as usize;
                let e = (((i.end / span) * width as f64).ceil() as usize).min(width);
                for cell in row.iter_mut().take(e).skip(s.min(width)) {
                    *cell = c;
                }
            }
            out.push_str(&format!("dev{d:>2} |"));
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(device: usize, start: f64, end: f64, kind: WorkKind) -> Interval {
        Interval {
            device,
            start,
            end,
            kind,
            stage: 0,
            micro_batch: None,
        }
    }

    fn sample() -> Timeline {
        let mut t = Timeline::new(2);
        t.push(iv(0, 0.0, 1.0, WorkKind::Forward));
        t.push(iv(0, 2.0, 4.0, WorkKind::Backward));
        t.push(iv(1, 1.0, 2.0, WorkKind::Forward));
        t
    }

    #[test]
    fn utilization_and_makespan() {
        let t = sample();
        assert_eq!(t.makespan(), 4.0);
        // busy = 1 + 2 + 1 = 4 over 2 devices × 4 time = 8.
        assert!((t.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bubbles_cover_gaps_and_edges() {
        let t = sample();
        let b0 = t.bubbles(0, 4.0);
        assert_eq!(b0, vec![(1.0, 2.0)]);
        let b1 = t.bubbles(1, 4.0);
        assert_eq!(b1, vec![(0.0, 1.0), (2.0, 4.0)]);
        assert!((t.total_bubble(4.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn busy_plus_bubble_equals_span() {
        let t = sample();
        let span = t.makespan();
        for d in 0..2 {
            let busy = t.device_busy(d);
            let bub: f64 = t.bubbles(d, span).iter().map(|(s, e)| e - s).sum();
            assert!((busy + bub - span).abs() < 1e-12, "device {d}");
        }
    }

    #[test]
    fn overlap_detection() {
        let mut t = sample();
        assert!(t.is_overlap_free(1e-9));
        t.push(iv(0, 0.5, 1.5, WorkKind::Forward));
        assert!(!t.is_overlap_free(1e-9));
    }

    #[test]
    fn windowed_utilization_clips() {
        let t = sample();
        // Window [0,2]: busy = dev0 1.0 + dev1 1.0 = 2 over 4 → 0.5.
        assert!((t.utilization_in(0.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn csv_export_roundtrips_fields() {
        let t = sample();
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "device,start,end,kind,stage,micro_batch");
        assert_eq!(lines.len(), 4);
        // Sorted by (device, start).
        assert!(lines[1].starts_with("0,0.0"));
        assert!(lines[2].starts_with("0,2.0"));
        assert!(lines[3].starts_with("1,1.0"));
        assert!(lines[1].contains(",F,"));
        assert!(lines[2].contains(",B,"));
    }

    #[test]
    fn ascii_render_shape() {
        let t = sample();
        let art = t.render_ascii(40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('F'));
        assert!(lines[0].contains('B'));
        assert!(lines[1].contains('·'));
    }

    #[test]
    fn sorted_intervals_canonical_order() {
        let mut t = Timeline::new(2);
        t.push(iv(1, 1.0, 2.0, WorkKind::Forward));
        t.push(iv(0, 2.0, 4.0, WorkKind::Backward));
        t.push(iv(0, 0.0, 1.0, WorkKind::Forward));
        // Equal (device, start): longer interval and later label sort last.
        t.push(iv(0, 0.0, 1.0, WorkKind::Recompute));
        let order: Vec<(usize, f64, &str)> = t
            .sorted_intervals()
            .iter()
            .map(|i| (i.device, i.start, i.kind.label()))
            .collect();
        assert_eq!(
            order,
            vec![(0, 0.0, "F"), (0, 0.0, "R"), (0, 2.0, "B"), (1, 1.0, "F"),]
        );
    }

    #[test]
    fn csv_and_ascii_are_push_order_independent() {
        // Both exporters run off the shared sorted path, so any push order
        // produces identical output.
        let forward = sample();
        let mut reversed = Timeline::new(2);
        for i in forward.intervals().iter().rev() {
            reversed.push(i.clone());
        }
        assert_eq!(forward.to_csv(), reversed.to_csv());
        assert_eq!(forward.render_ascii(64), reversed.render_ascii(64));
    }

    #[test]
    fn ascii_overlap_draws_later_sorted_interval_on_top() {
        // Two same-device intervals covering the same span: the canonical
        // order (not push order) decides which character wins the cells.
        let mut a = Timeline::new(1);
        a.push(iv(0, 0.0, 2.0, WorkKind::Forward));
        a.push(iv(0, 0.0, 2.0, WorkKind::Backward));
        let mut b = Timeline::new(1);
        b.push(iv(0, 0.0, 2.0, WorkKind::Backward));
        b.push(iv(0, 0.0, 2.0, WorkKind::Forward));
        let art = a.render_ascii(8);
        assert_eq!(art, b.render_ascii(8));
        // 'F' sorts after 'B' at equal (device, start, end), so F is drawn.
        assert!(art.contains('F') && !art.contains('B'));
    }
}
