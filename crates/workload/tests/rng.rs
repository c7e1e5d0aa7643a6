//! Golden pins on the generator, and the case runner's self-test.
//!
//! The constants were captured at the commit before `mirror_workload::rng`
//! existed, through the stand-in `benchmark/vendor/rand`; they hold as long
//! as every generated workload — the benchmark's inputs and the figures'
//! streams — is bit-identical to what that stand-in produced. A deliberate
//! change to the generator re-captures them and re-takes the benchmark
//! baseline.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mirror_core::event::EventBody;
use mirror_workload::rng::{check, check_seed, Rng};
use mirror_workload::{delta, faa, scenario, RequestPattern, RequestSchedule, TimedEvent};

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// What the generator decides about a schedule: arrival times, identity,
/// padding, and the position fields that involve no libm call (`lat`/`lon`
/// go through `sin`/`cos`, whose last bit is the platform's business).
fn schedule_digest(events: &[TimedEvent]) -> u64 {
    digest(events.iter().flat_map(|(t, e)| {
        let fix = match &e.body {
            EventBody::Position(p) => [p.alt_ft, p.speed_kts, p.heading_deg].map(f64::to_bits),
            _ => [0; 3],
        };
        [*t, u64::from(e.stream), e.seq, u64::from(e.flight), u64::from(e.padding)]
            .into_iter()
            .chain(fix)
    }))
}

fn requests_digest(pattern: RequestPattern) -> u64 {
    let schedule = RequestSchedule::generate(pattern, 10_000_000, 0x5EED);
    digest(schedule.requests.iter().flat_map(|r| [r.at_us, r.id]))
}

#[test]
fn raw_stream_is_pinned_for_two_seeds() {
    let first8 = |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        std::array::from_fn::<u64, 8, _>(|_| rng.next_u64())
    };
    assert_eq!(first8(0), GOLDEN_SEED_0);
    assert_eq!(first8(0xFAA), GOLDEN_SEED_FAA);
}

#[test]
fn default_event_streams_are_pinned() {
    assert_eq!(schedule_digest(&faa::generate(&Default::default())), GOLDEN_FAA);
    assert_eq!(schedule_digest(&delta::generate(&Default::default())), GOLDEN_DELTA);
    let day = scenario::generate(&Default::default());
    assert_eq!(schedule_digest(&day.events), GOLDEN_SCENARIO);
    // `gen_range(4..25)` on `u32` — the one draw the events do not carry.
    assert_eq!(digest(day.connections.iter().map(|c| u64::from(c.passengers))), GOLDEN_CONNECTIONS);
}

#[test]
fn request_schedules_are_pinned() {
    assert_eq!(requests_digest(RequestPattern::Constant { rate: 400.0 }), GOLDEN_CONSTANT);
    let bursty = RequestPattern::Bursty {
        base: 50.0,
        peak: 2_000.0,
        burst_us: 200_000,
        period_us: 1_000_000,
    };
    assert_eq!(requests_digest(bursty), GOLDEN_BURSTY);
    // The inclusive `u64` range.
    let storm = RequestPattern::RecoveryStorm { at_us: 5_000_000, count: 250, spread_us: 100_000 };
    assert_eq!(requests_digest(storm), GOLDEN_STORM);
}

/// A deliberately false property fails with a seed in its message, and
/// that seed replays the identical failing input.
#[test]
fn failing_property_names_a_seed_that_replays_its_input() {
    let draw = |rng: &mut Rng| rng.gen_vec(1..20, |r| r.gen_range(0..1000u32));
    let failing = Cell::new(Vec::new());
    let panic = catch_unwind(AssertUnwindSafe(|| {
        check("no_vec_sums_past_5000", 256, |rng| {
            let v = draw(rng);
            failing.set(v.clone());
            assert!(v.iter().sum::<u32>() < 5000);
        })
    }))
    .expect_err("the property is false");
    let message = panic.downcast_ref::<String>().expect("check panics with a message");
    assert!(message.contains("no_vec_sums_past_5000"), "{message}");
    let hex = message.split("check_seed(0x").nth(1).and_then(|s| s.split(',').next());
    let seed = u64::from_str_radix(hex.expect("a seed in the message"), 16).unwrap();
    check_seed(seed, |rng| assert_eq!(draw(rng), failing.take()));
}

#[test]
fn passing_property_runs_every_case_on_distinct_inputs() {
    let seen = Cell::new(Vec::new());
    check("distinct", 64, |rng| {
        let mut v = seen.take();
        v.push(rng.next_u64());
        seen.set(v);
    });
    let mut v = seen.take();
    v.sort_unstable();
    v.dedup();
    assert_eq!(v.len(), 64);
}

const GOLDEN_SEED_0: [u64; 8] = [
    0x99EC_5F36_CB75_F2B4,
    0xBF6E_1F78_4956_452A,
    0x1A5F_849D_4933_E6E0,
    0x6AA5_94F1_262D_2D2C,
    0xBBA5_AD4A_1F84_2E59,
    0xFFEF_8375_D9EB_CACA,
    0x6C16_0DEE_D2F5_4C98,
    0x8920_AD64_8FC3_0A3F,
];
const GOLDEN_SEED_FAA: [u64; 8] = [
    0xB353_FEED_A9F8_80C2,
    0x9CC3_F5DF_2132_5794,
    0xF045_9534_4AF9_8E08,
    0x5EFD_1E61_3AC8_756C,
    0x3EE3_201F_23F9_F2F5,
    0x2E53_F056_7471_D419,
    0x7A29_E610_DFA0_550F,
    0xB2FC_A353_3A7D_8509,
];
const GOLDEN_FAA: u64 = 0x7616_ED0A_EF71_4872;
const GOLDEN_DELTA: u64 = 0x1F99_5425_5B36_8BEA;
const GOLDEN_SCENARIO: u64 = 0x2C79_7ABC_ADDB_A47C;
const GOLDEN_CONNECTIONS: u64 = 0xE080_3CA9_419D_E586;
const GOLDEN_CONSTANT: u64 = 0x07B6_C228_E0FD_95B9;
const GOLDEN_BURSTY: u64 = 0x14A3_7D40_420C_469F;
const GOLDEN_STORM: u64 = 0xAAF6_D685_4F1A_E4C0;
