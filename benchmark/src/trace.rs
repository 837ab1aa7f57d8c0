//! Spans recorded by the harness around the calls it makes into each
//! layer. Kept in memory while the round runs and written out afterwards;
//! with tracing off every method is a branch on a bool.

use std::time::Instant;

/// One interval: `name`, start and end (seconds since the tracer was
/// created), the span that caused it, and the request it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; returns its id (meaningless when tracing is off).
    pub fn begin(&mut self, name: &str, parent: Option<u32>, request: u32) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_s: now,
            end_s: now,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end_s = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Seconds since the tracer was created (the time base of its spans).
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Record a span whose interval was measured elsewhere (the open
    /// loop stamps its requests itself and files them afterwards).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<u32>,
        request: u32,
        start_s: f64,
        end_s: f64,
    ) -> u32 {
        let id = self.begin(name, parent, request);
        if self.on {
            let span = &mut self.spans[id as usize];
            (span.start_s, span.end_s) = (start_s, end_s);
        }
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and a
/// child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_s.max(parent.start_s);
            let hi = s.end_s.min(parent.end_s);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::MIN;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_s() - covered
        })
        .collect()
}

/// Render spans (with their self times) as the `spans` array of
/// `trace.json`.
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(&selfs)
        .map(|(s, self_s)| {
            format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_s\":{:e},\"end_s\":{:e},\"self_s\":{:e}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start_s,
                s.end_s,
                self_s
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: format!("s{id}"),
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            // Overlaps span 1 on [3, 4]: the union is [1, 6], not 3 + 3.
            span(2, Some(0), 3.0, 6.0),
            // Grandchild: comes off span 1, not off the root.
            span(3, Some(1), 1.5, 2.0),
            // Sticks out of its parent: clipped to [8, 10].
            span(4, Some(0), 8.0, 12.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 3.0).abs() < 1e-12, "10 - [1,6] - [8,10]");
        assert!((selfs[1] - 2.5).abs() < 1e-12);
        assert!((selfs[2] - 3.0).abs() < 1e-12);
        assert!((selfs[3] - 0.5).abs() < 1e-12);
        assert!((selfs[4] - 4.0).abs() < 1e-12);
        // Self times of a request's tree sum to the root's wall time
        // when children tile it without leaving the parent.
        let tiled = vec![
            span(0, None, 0.0, 5.0),
            span(1, Some(0), 0.0, 2.0),
            span(2, Some(0), 2.0, 5.0),
        ];
        let total: f64 = self_times(&tiled).iter().sum();
        assert!((total - 5.0).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        t.end(id);
        t.record("y", None, 1, 0.0, 1.0);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn an_enabled_tracer_nests_and_orders() {
        let mut t = Tracer::new(true);
        let root = t.begin("request", None, 3);
        let submit = t.begin("submit", Some(root), 3);
        t.end(submit);
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
        let json = spans_json(&spans);
        assert!(json.contains("\"name\":\"submit\"") && json.contains("\"parent\":null"));
    }
}
