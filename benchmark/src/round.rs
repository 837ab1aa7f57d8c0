//! What one round (one fresh child process) hands back to the parent,
//! and the line-based text file it travels in.

use crate::trace::Span;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundResult {
    /// Input hash the child generated from the seed.
    pub input_hash: u64,
    /// Spawn -> ready for the first measured operation, seconds.
    pub setup_s: f64,
    /// Wall time of the measured phase, seconds.
    pub wall_s: f64,
    /// Process CPU (user + sys, all threads) over the measured phase.
    pub cpu_s: f64,
    /// Generator CPU spent spinning between sends (open loop), seconds.
    pub idle_spin_cpu_s: f64,
    /// Generator wall time spent outside send calls (open loop), seconds.
    pub idle_spin_wall_s: f64,
    /// Peak resident set of the child, MiB.
    pub rss_mib: f64,
    /// Operations attempted / answered with a legal decision. One
    /// operation is one call on `hot_hits`, one request elsewhere.
    pub attempted: u64,
    pub ok: u64,
    /// Per-operation latency samples, seconds (one per block on
    /// `hot_hits`, already divided by the block length).
    pub samples: Vec<f64>,
    /// Open loop: how late each request was sent, seconds.
    pub lateness: Vec<f64>,
    /// Counters that must repeat exactly from round to round.
    pub exact: BTreeMap<String, u64>,
    /// Everything else measured along the way (timings, gauges).
    pub gauges: BTreeMap<String, f64>,
    /// FNV-1a over every served choice in operation order.
    pub decision_hash: u64,
    /// First decision served per key (`-` when a key was never served).
    pub decisions: Vec<String>,
    /// `(key, noiseless device-model time of the served config)`.
    pub quality: Vec<(u32, f64)>,
    /// First key served an illegal or missing decision, if any.
    pub offending: Option<String>,
    pub spans: Vec<Span>,
}

fn floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:e}"))
        .collect::<Vec<_>>()
        .join(" ")
}

impl RoundResult {
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("input_hash {}", self.input_hash));
        line(format!("decision_hash {}", self.decision_hash));
        line(format!(
            "scalars {}",
            floats(&[
                self.setup_s,
                self.wall_s,
                self.cpu_s,
                self.idle_spin_cpu_s,
                self.idle_spin_wall_s,
                self.rss_mib
            ])
        ));
        line(format!("ops {} {}", self.attempted, self.ok));
        line(format!("samples {}", floats(&self.samples)));
        line(format!("lateness {}", floats(&self.lateness)));
        for (k, v) in &self.exact {
            line(format!("exact {k} {v}"));
        }
        for (k, v) in &self.gauges {
            line(format!("gauge {k} {v:e}"));
        }
        for (i, d) in self.decisions.iter().enumerate() {
            line(format!("decision {i} {d}"));
        }
        for (k, t) in &self.quality {
            line(format!("quality {k} {t:e}"));
        }
        if let Some(key) = &self.offending {
            line(format!("offending {key}"));
        }
        for s in &self.spans {
            line(format!(
                "span {} {} {} {} {:e} {:e}",
                s.id,
                s.parent.map_or(-1, i64::from),
                s.request,
                s.name,
                s.start_s,
                s.end_s
            ));
        }
        line("end".to_string());
        out
    }

    /// Parse a round file. A file without the closing `end` line is a
    /// child that died mid-write and is refused.
    pub fn parse(text: &str) -> Result<RoundResult, String> {
        let mut r = RoundResult::default();
        let mut complete = false;
        for (n, raw) in text.lines().enumerate() {
            let bad = |what: &str| format!("round file line {}: {what}: {raw}", n + 1);
            let (tag, rest) = raw.split_once(' ').unwrap_or((raw, ""));
            let nums = || -> Result<Vec<f64>, String> {
                rest.split_whitespace()
                    .map(|t| t.parse::<f64>().map_err(|_| bad("bad number")))
                    .collect()
            };
            match tag {
                "input_hash" => r.input_hash = rest.parse().map_err(|_| bad("bad hash"))?,
                "decision_hash" => r.decision_hash = rest.parse().map_err(|_| bad("bad hash"))?,
                "scalars" => {
                    let v = nums()?;
                    let [a, b, c, d, e, f] = v[..] else {
                        return Err(bad("six scalars expected"));
                    };
                    (r.setup_s, r.wall_s, r.cpu_s) = (a, b, c);
                    (r.idle_spin_cpu_s, r.idle_spin_wall_s, r.rss_mib) = (d, e, f);
                }
                "ops" => {
                    let (a, b) = rest.split_once(' ').ok_or_else(|| bad("two counts"))?;
                    r.attempted = a.parse().map_err(|_| bad("bad count"))?;
                    r.ok = b.parse().map_err(|_| bad("bad count"))?;
                }
                "samples" => r.samples = nums()?,
                "lateness" => r.lateness = nums()?,
                "exact" => {
                    let (k, v) = rest.split_once(' ').ok_or_else(|| bad("name value"))?;
                    r.exact
                        .insert(k.to_string(), v.parse().map_err(|_| bad("bad count"))?);
                }
                "gauge" => {
                    let (k, v) = rest.split_once(' ').ok_or_else(|| bad("name value"))?;
                    r.gauges
                        .insert(k.to_string(), v.parse().map_err(|_| bad("bad number"))?);
                }
                "decision" => {
                    let (i, d) = rest.split_once(' ').ok_or_else(|| bad("index text"))?;
                    if i.parse::<usize>() != Ok(r.decisions.len()) {
                        return Err(bad("decisions out of order"));
                    }
                    r.decisions.push(d.to_string());
                }
                "quality" => {
                    let (k, t) = rest.split_once(' ').ok_or_else(|| bad("key time"))?;
                    r.quality.push((
                        k.parse().map_err(|_| bad("bad key"))?,
                        t.parse().map_err(|_| bad("bad number"))?,
                    ));
                }
                "offending" => r.offending = Some(rest.to_string()),
                "span" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    let [id, parent, request, name, start, end] = f[..] else {
                        return Err(bad("six span fields"));
                    };
                    let parent: i64 = parent.parse().map_err(|_| bad("bad parent"))?;
                    r.spans.push(Span {
                        id: id.parse().map_err(|_| bad("bad id"))?,
                        parent: u32::try_from(parent).ok(),
                        request: request.parse().map_err(|_| bad("bad request"))?,
                        name: name.to_string(),
                        start_s: start.parse().map_err(|_| bad("bad start"))?,
                        end_s: end.parse().map_err(|_| bad("bad end"))?,
                    });
                }
                "end" => complete = true,
                _ => return Err(bad("unknown tag")),
            }
        }
        if complete {
            Ok(r)
        } else {
            Err("round file is truncated (no `end` line)".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_files_round_trip_bit_for_bit() {
        let r = RoundResult {
            input_hash: u64::MAX - 3,
            setup_s: 0.6123456789012345,
            wall_s: 3.25,
            cpu_s: 3.1,
            idle_spin_cpu_s: 0.0,
            idle_spin_wall_s: 1e-9,
            rss_mib: 101.5,
            attempted: 56,
            ok: 56,
            samples: vec![0.07123456789, 1.23e-7, 5.0],
            lateness: vec![],
            exact: BTreeMap::from([("cache.hits".to_string(), 12u64)]),
            gauges: BTreeMap::from([("queue.wait_s_total".to_string(), 0.1 + 0.2)]),
            decision_hash: 42,
            decisions: vec!["Tuned cfg with spaces | 3ff0".to_string(), "-".to_string()],
            quality: vec![(1, 1.25e-4)],
            offending: Some("sgemm_nt_1x2x3".to_string()),
            spans: vec![Span {
                id: 0,
                parent: None,
                request: 9,
                name: "request".to_string(),
                start_s: 0.5,
                end_s: 0.75,
            }],
        };
        assert_eq!(RoundResult::parse(&r.to_text()), Ok(r));
    }

    #[test]
    fn a_truncated_round_file_is_refused() {
        let text = RoundResult::default().to_text();
        let cut = text.strip_suffix("end\n").unwrap();
        assert!(RoundResult::parse(cut).is_err());
        assert!(RoundResult::parse("nonsense 1\nend\n").is_err());
    }
}
