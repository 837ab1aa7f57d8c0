//! The load generators: how operations are issued and timed.
//!
//! The open loop is generic over what "send" and "done" mean so that its
//! own arithmetic (latency from the *scheduled* time, lateness, idle-spin
//! accounting) is unit-tested without a tuning service behind it.

use crate::sys::thread_cpu_s;
use std::time::Instant;

/// Wall and CPU time of the generator thread, split into time inside
/// `send` calls (work the system under test asked for) and the rest
/// (spinning on the clock and on tickets: the harness's own cost).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpinLedger {
    pub total_wall_s: f64,
    pub total_cpu_s: f64,
    pub send_wall_s: f64,
    pub send_cpu_s: f64,
}

impl SpinLedger {
    /// Generator CPU that is not the system's: subtracted from process
    /// CPU before `cpu_s_per_op` is taken.
    pub fn idle_cpu_s(&self) -> f64 {
        (self.total_cpu_s - self.send_cpu_s).max(0.0)
    }

    pub fn idle_wall_s(&self) -> f64 {
        (self.total_wall_s - self.send_wall_s).max(0.0)
    }
}

/// What an open-loop run observed, per request in schedule order. All
/// times are seconds from the start of the run.
#[derive(Debug)]
pub struct OpenLoopReport<H> {
    pub handles: Vec<H>,
    /// When the request was actually sent, and when `send` returned.
    pub sent_s: Vec<f64>,
    pub send_done_s: Vec<f64>,
    /// When the request was first observed complete.
    pub done_s: Vec<f64>,
    /// `done - scheduled`: a stalled generator makes later requests late,
    /// and that wait is the request's, so it is counted.
    pub latency_s: Vec<f64>,
    /// `sent - scheduled`.
    pub lateness_s: Vec<f64>,
    pub ledger: SpinLedger,
}

/// Send request `i` at `schedule[i]` seconds regardless of how earlier
/// requests are doing, spinning (never sleeping: rule R5) on the clock
/// and on the outstanding handles in between.
pub fn open_loop<H>(
    schedule: &[f64],
    mut send: impl FnMut(usize) -> H,
    mut done: impl FnMut(&mut H) -> bool,
) -> OpenLoopReport<H> {
    let n = schedule.len();
    let mut handles: Vec<Option<H>> = (0..n).map(|_| None).collect();
    let mut sent_s = vec![0.0; n];
    let mut send_done_s = vec![0.0; n];
    let mut done_s = vec![0.0; n];
    let mut pending: Vec<usize> = Vec::new();
    let mut ledger = SpinLedger::default();
    let mut next = 0;

    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    while next < n || !pending.is_empty() {
        let now = t0.elapsed().as_secs_f64();
        if next < n && now >= schedule[next] {
            let c0 = thread_cpu_s();
            let handle = send(next);
            let end = t0.elapsed().as_secs_f64();
            ledger.send_cpu_s += thread_cpu_s() - c0;
            ledger.send_wall_s += end - now;
            sent_s[next] = now;
            send_done_s[next] = end;
            handles[next] = Some(handle);
            pending.push(next);
            next += 1;
        }
        pending.retain(|&i| {
            let finished = done(handles[i].as_mut().expect("pending request has a handle"));
            if finished {
                done_s[i] = t0.elapsed().as_secs_f64();
            }
            !finished
        });
        std::hint::spin_loop();
    }
    ledger.total_wall_s = t0.elapsed().as_secs_f64();
    ledger.total_cpu_s = thread_cpu_s() - cpu0;

    OpenLoopReport {
        latency_s: done_s.iter().zip(schedule).map(|(d, s)| d - s).collect(),
        lateness_s: sent_s.iter().zip(schedule).map(|(t, s)| t - s).collect(),
        handles: handles
            .into_iter()
            .map(|h| h.expect("every request sent"))
            .collect(),
        sent_s,
        send_done_s,
        done_s,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn latency_counts_from_the_scheduled_time_when_the_generator_stalls() {
        // Four requests 2 ms apart; sending the first one stalls the
        // generator for 30 ms. Requests 1..3 were *due* during the stall:
        // they go out late, and the wait is charged to them.
        let schedule = [0.0, 0.002, 0.004, 0.006];
        let report = open_loop(
            &schedule,
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                i
            },
            |_| true,
        );
        assert_eq!(report.handles, vec![0, 1, 2, 3]);
        for (i, due) in schedule.iter().enumerate().skip(1) {
            assert!(
                report.lateness_s[i] >= 0.030 - due - 1e-4,
                "request {i} left {} s late",
                report.lateness_s[i]
            );
            assert!(
                report.latency_s[i] >= report.lateness_s[i],
                "latency includes the lateness"
            );
            // Measured from the send instead, the stall would vanish.
            let from_send = report.done_s[i] - report.sent_s[i];
            assert!(from_send < 0.005, "from-send latency hides the stall");
        }
        assert!(report.latency_s[0] >= 0.030);
        assert!(report.sent_s.windows(2).all(|w| w[0] <= w[1]), "in order");
    }

    #[test]
    fn completion_is_observed_by_polling_not_at_send() {
        // Request 0 completes only once 5 ms have passed.
        let born = Instant::now();
        let report = open_loop(
            &[0.0],
            |_| (),
            |_| born.elapsed() >= Duration::from_millis(5),
        );
        assert!(report.latency_s[0] >= 0.005 - 1e-4);
        assert!(report.send_done_s[0] <= report.done_s[0]);
    }

    #[test]
    fn idle_spin_is_everything_outside_send() {
        let ledger = SpinLedger {
            total_wall_s: 4.0,
            total_cpu_s: 3.9,
            send_wall_s: 0.5,
            send_cpu_s: 0.4,
        };
        assert!((ledger.idle_cpu_s() - 3.5).abs() < 1e-12);
        assert!((ledger.idle_wall_s() - 3.5).abs() < 1e-12);
        assert_eq!(SpinLedger::default().idle_cpu_s(), 0.0);

        // Measured: a generator that sleeps 20 ms inside send and spins
        // until 40 ms has ~20 ms of send wall and ~20 ms of idle wall,
        // and the sleep is not CPU.
        let report = open_loop(
            &[0.0, 0.040],
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
            },
            |_| true,
        );
        let l = report.ledger;
        assert!(l.send_wall_s >= 0.020 && l.send_wall_s < 0.035, "{l:?}");
        assert!(l.idle_wall_s() >= 0.010, "{l:?}");
        assert!(l.send_cpu_s < 0.010, "sleeping is not CPU: {l:?}");
        assert!(l.idle_cpu_s() <= l.total_cpu_s);
    }
}
