//! Differential oracle suite: production fast paths vs `bgq-oracle`'s
//! deliberately naive references.
//!
//! Each pairing below runs the same inputs through a production path
//! and its whiteboard-obvious reference and demands agreement:
//!
//! | production                              | reference                             | equality   |
//! |-----------------------------------------|---------------------------------------|------------|
//! | `Histogram` guess-and-snap binning      | per-edge linear search                | bit-exact  |
//! | `Summary` order statistics              | sort + type-7 interpolation           | bit-exact  |
//! | `correlation::spearman` (sorted ranks)  | counted mid-ranks + textbook Pearson  | `1e-12`    |
//! | `IntervalIndex` stab / overlap          | full scan per query                   | bit-exact  |
//! | `attribute_events` (indexed join)       | quadratic scan join                   | bit-exact  |
//! | `utilization_series` (interval clip)    | per-second stepping                   | bit-exact  |
//! | streaming interned `Dataset` load       | original in-memory records            | bit-exact  |
//! | columnar snapshot round-trip            | original in-memory records            | bit-exact  |
//! | `mine_chains` (sorted single pass)      | quadratic whole-log reconstruction    | bit-exact  |
//! | columnar per-user engine                | one linear scan per distinct user     | bit-exact  |
//! | `SpaceSaving` top-k sketch              | exact tally + full sort               | ≤ εW bound |
//! | byte-level `Location::from_str`         | original `str::split` parser          | exact text |
//!
//! Random cases come from the vendored proptest harness (so failures
//! shrink to minimal draw streams); the `#[ignore]`d corpus test replays
//! a fixed-seed adversarial corpus — values exactly on bin edges,
//! zero-duration jobs, pre-origin events, NaN/∞, all-tied samples — and
//! is run in CI in release mode. The only documented tolerance is the
//! Spearman pairing (`1e-12`): the two sides sum ranks in different
//! orders. Everything else must match to the bit.

use bgq_core::chains::mine_chains;
use bgq_core::columnar::{per_entity_columnar, DEFAULT_CHUNK_ROWS};
use bgq_core::queueing::utilization_series;
use bgq_logs::interval::IntervalIndex;
use bgq_logs::join::attribute_events;
use bgq_logs::snapshot;
use bgq_logs::store::{Dataset, LoadOptions, SourceAvailability};
use bgq_model::{Location, Machine, Severity, Span, Timestamp};
use bgq_oracle::cases::{self, AdversarialCase};
use bgq_oracle::{
    binning, join as refjoin, location as refloc, ranking, stabbing, users, utilization,
};
use bgq_stats::correlation::spearman;
use bgq_stats::histogram::Histogram;
use bgq_stats::summary::Summary;
use bgq_stats::topk::SpaceSaving;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn ts(s: i64) -> Timestamp {
    Timestamp::from_secs(s)
}

// ---------------------------------------------------------------------------
// Pairing helpers, shared by the proptest properties and the fixed corpus.
// ---------------------------------------------------------------------------

/// The authoritative edge array of a histogram, as reported by its own
/// `bin_bounds` — the reference then re-derives every bin assignment
/// from these edges alone.
fn harvest_edges(h: &Histogram) -> Vec<f64> {
    let mut edges = vec![h.bin_bounds(0).0];
    for i in 0..h.bins() {
        edges.push(h.bin_bounds(i).1);
    }
    edges
}

/// Checks one histogram against the reference: the production layout's
/// reported bounds must equal the *independently derived* `ref_edges`
/// bit-for-bit (a layout that is merely self-consistent with drifted
/// edges still fails here), and the filled counts must match a per-edge
/// linear search over those reference edges.
fn check_histogram(mut h: Histogram, ref_edges: &[f64], values: &[f64], what: &str) {
    let harvested = harvest_edges(&h);
    assert_eq!(harvested.len(), ref_edges.len(), "{what}: edge count diverged");
    for (i, (got, want)) in harvested.iter().zip(ref_edges).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: edge {i} drifted: {got} vs {want}"
        );
    }
    for &v in values {
        h.add(v);
    }
    let (under, counts, over) = binning::fill_by_linear_search(ref_edges, values);
    assert_eq!(h.underflow(), under, "{what}: underflow diverged on {values:?}");
    assert_eq!(h.overflow(), over, "{what}: overflow diverged on {values:?}");
    for (i, &want) in counts.iter().enumerate() {
        assert_eq!(
            h.count(i),
            want,
            "{what}: bin {i} {:?} diverged on {values:?}",
            h.bin_bounds(i),
        );
    }
}

fn check_linear(lo: f64, hi: f64, bins: usize, values: &[f64], what: &str) {
    check_histogram(
        Histogram::linear(lo, hi, bins).unwrap(),
        &binning::linear_edges(lo, hi, bins),
        values,
        what,
    );
}

fn check_all_layouts(values: &[f64]) {
    check_linear(0.0, 1.0, 10, values, "linear[0,1)x10");
    check_linear(-3.0, 9.0, 7, values, "linear[-3,9)x7");
    check_histogram(
        Histogram::log(1e-3, 1e3, 6).unwrap(),
        &binning::log_edges(1e-3, 1e3, 6),
        values,
        "log decades",
    );
    let explicit = vec![0.0, 0.1, 0.5, 0.7, 2.0, 10.0];
    check_histogram(
        Histogram::with_edges(explicit.clone()).unwrap(),
        &explicit,
        values,
        "explicit",
    );
}

fn check_summary(values: &[f64]) {
    let s = Summary::from_slice(values);
    let reference = |q| ranking::quantile_type7(values, q);
    match s {
        None => assert!(
            reference(0.5).is_none(),
            "Summary dropped a sample the reference kept: {values:?}"
        ),
        Some(s) => {
            for (q, got) in [
                (0.0, s.min()),
                (0.25, s.p25()),
                (0.5, s.median()),
                (0.75, s.p75()),
                (0.95, s.p95()),
                (0.99, s.p99()),
                (1.0, s.max()),
            ] {
                let want = reference(q).expect("reference defined when Summary is");
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "quantile q={q} diverged on {values:?}: {got} vs {want}"
                );
            }
        }
    }
}

fn check_spearman(x: &[f64], y: &[f64]) {
    let got = spearman(x, y);
    let want = ranking::spearman_naive(x, y);
    match (got, want) {
        (None, None) => {}
        (Some(a), Some(b)) => assert!(
            (a - b).abs() <= 1e-12,
            "spearman diverged: {a} vs {b} on x={x:?} y={y:?}"
        ),
        _ => panic!("spearman definedness diverged: {got:?} vs {want:?} on x={x:?} y={y:?}"),
    }
}

fn check_intervals(intervals: &[(Timestamp, Timestamp)], width_secs: i64, queries: &[i64]) {
    let idx = IntervalIndex::build(intervals.iter().copied(), Span::from_secs(width_secs));
    for &q in queries {
        assert_eq!(
            idx.stab(ts(q)),
            stabbing::stab_brute(intervals, ts(q)),
            "stab({q}) diverged (width {width_secs}) on {intervals:?}"
        );
    }
    for w in queries.windows(2) {
        let (from, to) = (ts(w[0].min(w[1])), ts(w[0].max(w[1])));
        assert_eq!(
            idx.overlapping(from, to),
            stabbing::overlapping_brute(intervals, from, to),
            "overlapping({from:?}, {to:?}) diverged on {intervals:?}"
        );
    }
}

fn check_join(case: &AdversarialCase) {
    for severity in Severity::ALL {
        let got: Vec<(usize, usize)> = attribute_events(&case.jobs, &case.events, severity)
            .pairs
            .iter()
            .map(|a| (a.event_idx, a.job_idx))
            .collect();
        let want = refjoin::scan_join(&case.jobs, &case.events, severity);
        assert_eq!(
            got, want,
            "join diverged at {severity:?} (seed {})",
            case.seed
        );
    }
}

/// Cross-checks the interned streaming ingestion against the in-memory
/// records: the case's jobs and events (given distinctive, comma-bearing
/// message texts so interning actually works) are saved and re-loaded
/// through both streaming paths, and `attribute_events` over the
/// round-tripped interned records must produce the exact pairs the
/// quadratic string-keyed reference produces over the originals.
fn check_interned_roundtrip(case: &AdversarialCase, dir: &std::path::Path) {
    let mut ds = Dataset::new();
    ds.jobs = case.jobs.clone();
    ds.ras = case
        .events
        .iter()
        .cloned()
        .map(|mut r| {
            r.message = format!(
                "seed {}, rec {}: \"payload\" at {}",
                case.seed,
                r.rec_id.raw(),
                r.location
            )
            .into();
            r
        })
        .collect();
    ds.save_dir(dir).expect("save corpus case");
    // Loads normalize at the persistence boundary, so the round-trip
    // target is the canonical form of the original records.
    let mut canonical = ds.clone();
    canonical.normalize();
    let strict = Dataset::load_dir(dir).expect("strict load");
    assert_eq!(
        strict, canonical,
        "strict streaming round-trip diverged (seed {})",
        case.seed
    );
    let (lenient, report) = Dataset::load_dir_with(dir, &LoadOptions::default()).expect("lenient");
    assert_eq!(
        lenient, canonical,
        "lenient streaming round-trip diverged (seed {})",
        case.seed
    );
    assert_eq!(report.total_rejected(), 0, "clean data rejected rows (seed {})", case.seed);
    for severity in Severity::ALL {
        let got: Vec<(usize, usize)> = attribute_events(&lenient.jobs, &lenient.ras, severity)
            .pairs
            .iter()
            .map(|a| (a.event_idx, a.job_idx))
            .collect();
        let want = refjoin::scan_join(&canonical.jobs, &canonical.ras, severity);
        assert_eq!(
            got, want,
            "join over interned round-trip diverged at {severity:?} (seed {})",
            case.seed
        );
    }
}

/// Cross-checks the binary snapshot store against the in-memory
/// records: the case's jobs and events go through `write_dir` /
/// `read_dir` (strict) and `read_dir_with` (degraded, generous
/// ceiling), both loads must equal the canonical form of the original
/// dataset exactly, and `attribute_events` over the round-tripped
/// records must produce the pairs the quadratic reference produces over
/// that same canonical form.
fn check_snapshot_roundtrip(case: &AdversarialCase, dir: &std::path::Path) {
    let mut ds = Dataset::new();
    ds.jobs = case.jobs.clone();
    ds.ras = case.events.clone();
    let mut canonical = ds.clone();
    canonical.normalize();
    snapshot::write_dir(&ds, dir, &SourceAvailability::ALL).expect("write snapshot");
    let (strict, parts) = snapshot::read_dir(dir).expect("strict snapshot load");
    assert_eq!(
        strict, canonical,
        "strict snapshot round-trip diverged (seed {})",
        case.seed
    );
    let rows = |f: fn(&snapshot::PartitionSpan) -> usize| -> usize {
        parts.days.iter().map(f).sum()
    };
    assert_eq!(rows(|s| s.jobs.len()), canonical.jobs.len(), "seed {}", case.seed);
    assert_eq!(rows(|s| s.ras.len()), canonical.ras.len(), "seed {}", case.seed);
    let opts = LoadOptions {
        max_reject_ratio: 1.0,
        degraded: true,
        ..LoadOptions::default()
    };
    let (lenient, report) = snapshot::read_dir_with(dir, &opts).expect("degraded snapshot load");
    assert_eq!(
        lenient, canonical,
        "degraded snapshot round-trip diverged (seed {})",
        case.seed
    );
    assert_eq!(
        report.load.total_rejected(),
        0,
        "clean snapshot rejected rows (seed {})",
        case.seed
    );
    for severity in Severity::ALL {
        let got: Vec<(usize, usize)> = attribute_events(&strict.jobs, &strict.ras, severity)
            .pairs
            .iter()
            .map(|a| (a.event_idx, a.job_idx))
            .collect();
        let want = refjoin::scan_join(&canonical.jobs, &canonical.ras, severity);
        assert_eq!(
            got, want,
            "join over snapshot round-trip diverged at {severity:?} (seed {})",
            case.seed
        );
    }
}

/// Checks the chain miner against the quadratic reconstruction: the
/// naive side rebuilds every chain by whole-log scans, then every
/// headline statistic — chain count, corrupt-link count, length and gap
/// histograms (rebuilt from scratch, relying on record-order
/// invariance), eventual-success table, give-up rate, wasted
/// node-seconds — must match exactly.
fn check_chains(case: &AdversarialCase) {
    let jobs = &case.lineage_jobs;
    let got = mine_chains(jobs);
    let (chains, dangling) = users::chains_naive(jobs);
    let seed = case.seed;
    assert_eq!(got.chains, chains.len(), "chain count diverged (seed {seed})");
    assert_eq!(got.dangling_links, dangling, "dangling count diverged (seed {seed})");
    assert_eq!(
        got.linked_jobs,
        jobs.len() - chains.len(),
        "every non-root chain member carries one valid link (seed {seed})"
    );

    let mut length_hist = bgq_obs::Histogram::new();
    let mut by_length: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let mut failed_chains = 0u64;
    let mut gave_up = 0u64;
    let mut wasted = 0u64;
    for chain in &chains {
        length_hist.record(chain.len() as u64);
        let succeeded = chain.iter().any(|&i| jobs[i].exit_code == 0);
        let failed = chain.iter().any(|&i| jobs[i].exit_code != 0);
        let e = by_length.entry(chain.len()).or_default();
        e.0 += 1;
        e.1 += u64::from(succeeded);
        if failed {
            failed_chains += 1;
            gave_up += u64::from(!succeeded);
        }
        if chain.len() >= 2 {
            wasted += chain
                .iter()
                .filter(|&&i| jobs[i].exit_code != 0)
                .map(|&i| jobs[i].node_seconds())
                .sum::<u64>();
        }
    }
    assert_eq!(got.length_hist, length_hist, "length histogram diverged (seed {seed})");
    let want_lengths: Vec<(usize, u64, u64)> = by_length
        .into_iter()
        .map(|(l, (c, s))| (l, c, s))
        .collect();
    let got_lengths: Vec<(usize, u64, u64)> = got
        .success_by_length
        .iter()
        .map(|r| (r.length, r.chains, r.succeeded))
        .collect();
    assert_eq!(got_lengths, want_lengths, "success-by-length diverged (seed {seed})");
    let want_give_up = (failed_chains > 0).then(|| gave_up as f64 / failed_chains as f64);
    assert_eq!(got.give_up_rate, want_give_up, "give-up rate diverged (seed {seed})");
    assert_eq!(got.wasted_node_seconds, wasted, "wasted work diverged (seed {seed})");

    // Gaps go per valid link, against the *named* parent (not the chain
    // predecessor — corrupted logs can fork a chain).
    let mut gap_hist = bgq_obs::Histogram::new();
    for j in jobs {
        let Some(p) = j.resubmit_of else { continue };
        if p.raw() >= j.job_id.raw() {
            continue;
        }
        if let Some(parent) = jobs.iter().find(|cand| cand.job_id == p) {
            gap_hist.record((j.queued_at.as_secs() - parent.ended_at.as_secs()).max(0) as u64);
        }
    }
    assert_eq!(got.gap_hist, gap_hist, "gap histogram diverged (seed {seed})");
}

/// Checks the sorted columnar per-user engine against the
/// one-pass-per-user linear scan, across several partition layouts.
fn check_per_user(case: &AdversarialCase) {
    for jobs in [&case.jobs, &case.lineage_jobs] {
        let want = users::per_user_scan(jobs);
        for chunk_rows in [1, 3, 50, DEFAULT_CHUNK_ROWS] {
            let got = per_entity_columnar(jobs, |j| j.user.raw(), chunk_rows);
            assert_eq!(got.len(), want.len(), "row count diverged (seed {})", case.seed);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    (g.id, g.jobs, g.failed, g.node_seconds),
                    (w.id, w.jobs, w.failed, w.node_seconds),
                    "columnar row diverged at chunk {chunk_rows} (seed {})",
                    case.seed
                );
                assert_eq!(
                    g.core_hours.to_bits(),
                    (w.node_seconds as f64 * 16.0 / 3_600.0).to_bits(),
                    "core-hours must derive from exact node-seconds (seed {})",
                    case.seed
                );
            }
        }
    }
}

/// Checks the space-saving sketch against the exact full-sort ranking:
/// estimates never undercount, over-count at most the sketch's own
/// error bound, every true heavy hitter above the bound is tracked, and
/// an unsaturated sketch reproduces the exact ranking verbatim.
fn check_sketch(updates: &[(u64, u64)], capacity: usize, what: &str) {
    let mut sk = SpaceSaving::with_capacity(capacity);
    for &(k, w) in updates {
        sk.update(k, w);
    }
    let exact = users::top_k_exact(updates, usize::MAX);
    let truth: BTreeMap<u64, u64> = exact.iter().copied().collect();
    let bound = sk.error_bound();
    for h in sk.top(usize::MAX) {
        let t = truth.get(&h.key).copied().unwrap_or(0);
        assert!(h.count >= t, "{what}: sketch undercounted key {}", h.key);
        assert!(
            h.count - t <= bound,
            "{what}: key {} over-counted by {} > εW {bound}",
            h.key,
            h.count - t
        );
        assert!(h.guaranteed() <= t, "{what}: guaranteed floor broken for key {}", h.key);
    }
    let tracked: Vec<u64> = sk.top(usize::MAX).iter().map(|h| h.key).collect();
    for &(k, t) in &exact {
        if t > bound {
            assert!(tracked.contains(&k), "{what}: heavy key {k} (weight {t}) missing");
        }
    }
    if truth.len() <= capacity {
        // Never saturated: the sketch *is* the exact ranking.
        let got: Vec<(u64, u64)> = sk.top(usize::MAX).iter().map(|h| (h.key, h.count)).collect();
        assert_eq!(got, exact, "{what}: unsaturated sketch must be exact");
    }
}

/// The sketch pairing over a case's job log: top users by wasted
/// node-seconds (failed jobs, weighted) and by failure count.
fn check_sketch_over_jobs(case: &AdversarialCase) {
    let failed: Vec<&bgq_model::JobRecord> = case
        .lineage_jobs
        .iter()
        .filter(|j| j.exit_code != 0)
        .collect();
    let by_waste: Vec<(u64, u64)> = failed
        .iter()
        .map(|j| (u64::from(j.user.raw()), j.node_seconds()))
        .collect();
    let by_count: Vec<(u64, u64)> = failed
        .iter()
        .map(|j| (u64::from(j.user.raw()), 1))
        .collect();
    for capacity in [1, 2, 8, 64] {
        check_sketch(&by_waste, capacity, "wasted node-seconds");
        check_sketch(&by_count, capacity, "failure count");
    }
}

fn check_utilization(case: &AdversarialCase) {
    let got = utilization_series(&case.jobs, &Machine::MIRA, 1);
    let want = utilization::utilization_by_seconds(&case.jobs, &Machine::MIRA, 1);
    assert_eq!(got.len(), want.len(), "window count diverged (seed {})", case.seed);
    for (i, ((gt, gv), (wt, wv))) in got.iter().zip(&want).enumerate() {
        assert_eq!(gt, wt, "window {i} start diverged (seed {})", case.seed);
        assert_eq!(
            gv.to_bits(),
            wv.to_bits(),
            "window {i} utilization diverged: {gv} vs {wv} (seed {})",
            case.seed
        );
    }
}

// ---------------------------------------------------------------------------
// Shrinking properties: random inputs, minimal counterexamples on failure.
// ---------------------------------------------------------------------------

/// Values that oversample histogram seams: exact edges computed two
/// ways, decade edges, plus uniform filler and non-finite pollution.
fn adversarial_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=10).prop_map(|k| k as f64 / 10.0),
        (0u64..=10).prop_map(|k| k as f64 * 0.1),
        (0u64..7).prop_map(|k| 10f64.powi(k as i32 - 3)),
        -4.0f64..12.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

proptest! {
    #[test]
    fn histogram_binning_matches_linear_search(
        values in proptest::collection::vec(adversarial_value(), 0..40),
    ) {
        check_all_layouts(&values);
    }

    #[test]
    fn random_linear_layouts_match_linear_search(
        lo in -100.0f64..100.0,
        span in 0.001f64..500.0,
        bins in 1usize..40,
        values in proptest::collection::vec(-150.0f64..650.0, 0..40),
    ) {
        let ref_edges = binning::linear_edges(lo, lo + span, bins);
        // Mix in every exact edge of the layout under test.
        let mut values = values;
        values.extend(&ref_edges);
        check_histogram(
            Histogram::linear(lo, lo + span, bins).unwrap(),
            &ref_edges,
            &values,
            "random linear layout",
        );
    }

    #[test]
    fn summary_quantiles_match_sorted_reference(
        values in proptest::collection::vec(adversarial_value(), 0..50),
    ) {
        check_summary(&values);
    }

    #[test]
    fn spearman_matches_counted_ranks(
        pairs in proptest::collection::vec((adversarial_value(), adversarial_value()), 0..30),
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        check_spearman(&x, &y);
    }

    #[test]
    fn interval_index_matches_full_scan(
        raw in proptest::collection::vec((-2_000i64..10_000, -500i64..6_000), 0..40),
        width in 1i64..400,
        queries in proptest::collection::vec(-5_000i64..15_000, 1..30),
    ) {
        let intervals: Vec<(Timestamp, Timestamp)> =
            raw.iter().map(|&(s, len)| (ts(s), ts(s + len))).collect();
        check_intervals(&intervals, width, &queries);
    }
}

proptest! {
    // Fewer cases: these pairings regenerate whole job/event logs (and
    // the utilization reference steps every second of every window).
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn join_matches_quadratic_scan(seed in 0u64..1_000_000) {
        check_join(&cases::generate(seed));
    }

    #[test]
    fn utilization_matches_second_stepping(seed in 0u64..1_000_000) {
        check_utilization(&cases::generate(seed));
    }

    #[test]
    fn chain_miner_matches_quadratic_reconstruction(seed in 0u64..1_000_000) {
        check_chains(&cases::generate(seed));
    }

    #[test]
    fn columnar_aggregation_matches_linear_scan(seed in 0u64..1_000_000) {
        check_per_user(&cases::generate(seed));
    }
}

proptest! {
    #[test]
    fn sketch_stays_within_epsilon_of_exact(
        updates in proptest::collection::vec((0u64..120, 0u64..1_000), 0..250),
        capacity in 1usize..50,
    ) {
        check_sketch(&updates, capacity, "random stream");
    }
}

/// Building blocks of location-code inputs: every level prefix, `+`,
/// leading zeros, values on and past each range edge, bare and trailing
/// `-`, stray ASCII, and multi-byte characters (including ones that sit
/// exactly in the rack's two digit bytes).
const LOCATION_TOKENS: &[&str] = &[
    "R", "M", "N", "J", "C", "-", "--", "+", "0", "1", "2", "3", "5", "7", "9", "00", "08", "001",
    "15", "16", "31", "32", "255", "256", "a", "F", "f", "G", "x", " ", "é", "ß", "☃", "😀", "R1",
    "R17", "R2F", "R30", "Ré", "R1é", "-M0", "-M1", "-M+1", "-N08", "-N16", "-J23", "-J31", "-C05",
    "-C15", "-C16",
];

/// Rack segments for the structured generator, valid and not.
const LOCATION_RACKS: &[&str] = &[
    "R00", "R17", "R2F", "R1a", "R30", "R3F", "Ré", "R1é", "R", "X17",
];

/// Level indices for the structured generator: in range, on and past
/// each level's edge, with `+` and leading zeros, empty, and non-digit.
const LOCATION_INDICES: &[&str] = &[
    "0", "1", "00", "07", "+1", "0001", "15", "16", "31", "32", "255", "256", "", "+", "++1", "a",
    "é", "1 ",
];

/// Strings shaped like location codes — the right level prefixes in the
/// right order most of the time — so the accepting paths get exercised,
/// mixed evenly with free-form token soup.
fn location_text() -> impl Strategy<Value = String> {
    let structured = (
        0..LOCATION_RACKS.len(),
        proptest::collection::vec((0usize..8, 0..LOCATION_INDICES.len()), 0..6),
    )
        .prop_map(|(rack, levels)| {
            let mut text = LOCATION_RACKS[rack].to_owned();
            for (depth, (prefix, index)) in levels.into_iter().enumerate() {
                text.push('-');
                text.push_str(match prefix {
                    0..=5 => ["M", "N", "J", "C", "C", "C"][depth],
                    6 => "X",
                    _ => "é",
                });
                text.push_str(LOCATION_INDICES[index]);
            }
            text
        });
    let soup = proptest::collection::vec(0..LOCATION_TOKENS.len(), 0..9).prop_map(|picks| {
        picks
            .iter()
            .map(|&i| LOCATION_TOKENS[i])
            .collect::<String>()
    });
    prop_oneof![structured, soup]
}

/// Production and reference must agree on accept/reject, on the parsed
/// value, and on the rendered error. The one sanctioned difference: the
/// reference panics on a multi-byte character in the rack's digit
/// position, where production must return an error instead.
fn check_location(text: &str) {
    let got = text.parse::<Location>().map_err(|e| e.to_string());
    match std::panic::catch_unwind(|| refloc::parse_location(text)) {
        Ok(want) => assert_eq!(got, want, "location {text:?}"),
        Err(_) => {
            let err = got.expect_err("the reference panicked, so the input is invalid");
            assert!(
                err.starts_with(&format!("invalid location {text:?}: ")),
                "{err}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn location_parser_matches_split_reference(text in location_text()) {
        check_location(&text);
    }
}

// ---------------------------------------------------------------------------
// Fixed-seed corpus: the CI leg. Every pairing over every corpus case.
// ---------------------------------------------------------------------------

/// The pinned corpus replayed by CI (`cargo test --release --test oracle
/// -- --ignored`). Seeds are stable: a divergence report names the seed,
/// and `bgq_oracle::cases::generate(seed)` reproduces the exact inputs.
#[test]
#[ignore = "fixed-seed corpus; run explicitly (CI does, in release)"]
fn fixed_seed_adversarial_corpus() {
    let base = std::env::temp_dir().join(format!("bgq-oracle-roundtrip-{}", std::process::id()));
    for seed in 0..64u64 {
        let case = cases::generate(seed);
        check_all_layouts(&case.samples);
        check_summary(&case.samples);
        let half = case.samples.len() / 2;
        check_spearman(&case.samples[..half], &case.samples[half..half * 2]);
        let queries: Vec<i64> = (-2_000..12_000).step_by(97).collect();
        for width in [1, 61, 997, 10_000] {
            check_intervals(&case.intervals, width, &queries);
        }
        check_join(&case);
        check_utilization(&case);
        check_chains(&case);
        check_per_user(&case);
        check_sketch_over_jobs(&case);
        check_interned_roundtrip(&case, &base.join(seed.to_string()));
        check_snapshot_roundtrip(&case, &base.join(format!("{seed}-snap")));
    }
    let _ = std::fs::remove_dir_all(&base);
}
