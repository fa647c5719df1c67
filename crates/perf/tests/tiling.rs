//! Property test for the exclusive-time tiling invariant.
//!
//! Arbitrary balanced span trees under a single root, driven through the
//! explicit-clock [`Recorder`] with a monotone synthetic clock, must
//! satisfy: children's elapsed time never exceeds the parent's inclusive
//! time, and the exclusive times of all spans tile the root's inclusive
//! time exactly — the invariant `agp perf`'s table reports against.

use agp_perf::{PerfReport, Recorder, Span, SPAN_COUNT};
use agp_sim::prop::{self, CASES};

/// Interpret a token stream as a balanced session: small tokens open a
/// child span, large ones close the innermost frame; the clock advances
/// by a token-derived amount at every step so durations vary.
fn drive(tokens: &[u8]) -> (Recorder, u64) {
    let mut rec = Recorder::new();
    let mut clock = 0u64;
    rec.enter(Span::Run, clock);
    let mut depth = 1usize;
    for &tok in tokens {
        clock += u64::from(tok) + 1;
        let open = (tok as usize) < SPAN_COUNT && depth < 12;
        if open {
            let span = Span::from_id(tok as usize % SPAN_COUNT).unwrap();
            rec.enter(span, clock);
            depth += 1;
        } else if depth > 1 {
            rec.exit(clock);
            depth -= 1;
        }
    }
    while depth > 0 {
        clock += 1;
        rec.exit(clock);
        depth -= 1;
    }
    (rec, clock)
}

#[test]
fn exclusive_times_tile_the_root() {
    prop::check("exclusive_times_tile_the_root", CASES, |rng| {
        let tokens = prop::vec(rng, 0..400, |r| r.below(256) as u8);
        let (rec, end_clock) = drive(&tokens);
        assert_eq!(rec.depth(), 0);
        assert_eq!(rec.unbalanced_exits, 0);

        let root_incl = rec.stat(Span::Run).incl_ns;
        assert_eq!(root_incl, end_clock); // root spans the whole session

        // Tiling: every nanosecond inside the root is exclusive to
        // exactly one span.
        assert_eq!(rec.total_self_ns(), root_incl);

        // Stack-path self times tile identically.
        let path_total: u64 = rec.paths().values().map(|p| p.self_ns).sum();
        assert_eq!(path_total, root_incl);

        for stat in rec.stats() {
            // Children sum <= parent inclusive, i.e. self time never
            // exceeds total activation time.
            assert!(stat.excl_ns <= stat.hist.sum());
            // No span outlives the root.
            assert!(stat.incl_ns <= root_incl);
            assert!(stat.hist.max() <= stat.hist.sum());
        }

        // The frozen report preserves the invariant.
        let rep = PerfReport::from_recorder(&rec);
        assert_eq!(rep.total_self_ns(), root_incl);
        let collapsed_total: u64 = rep
            .collapsed()
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(collapsed_total, root_incl);
    });
}
