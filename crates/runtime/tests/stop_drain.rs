//! A graceful `stop()` applies everything already published to a site.
//!
//! A mirror's data subscription can hold a deep backlog when `stop()` is
//! called: the publisher (the central, or a bridge reader) runs ahead of
//! the forwarder and aux threads. Stopping closes the subscriptions, lets
//! the forwarders drain them into the site's inbox, and only then queues
//! the site's own stop, so no published event is left behind. (A crash is
//! the opposite contract and abandons the backlog; `failover_chaos` and
//! `recovery` cover it.)

use mirror_core::api::{MirrorConfig, MirrorHandle};
use mirror_core::event::{Event, PositionFix};
use mirror_core::ControlMsg;
use mirror_echo::channel::EventChannel;
use mirror_echo::wire::SharedEvent;
use mirror_runtime::{MirrorSite, RuntimeClock};

const EVENTS: u64 = 50_000;
const RUNS: usize = 5;

fn fix() -> PositionFix {
    PositionFix { lat: 1.0, lon: 2.0, alt_ft: 30_000.0, speed_kts: 450.0, heading_deg: 10.0 }
}

#[test]
fn stop_processes_everything_published_before_it() {
    let mut short = Vec::new();
    for run in 0..RUNS {
        let data: EventChannel<SharedEvent> = EventChannel::new("drain.data");
        let ctrl_down: EventChannel<ControlMsg> = EventChannel::new("drain.ctrl.down");
        let ctrl_up: EventChannel<ControlMsg> = EventChannel::new("drain.ctrl.up");
        let mut mirror = MirrorSite::start(
            MirrorHandle::new(MirrorConfig::default().build_mirror(1)),
            RuntimeClock::new(),
            &data,
            &ctrl_down,
            ctrl_up.publisher(),
        );
        let publisher = data.publisher();
        for seq in 1..=EVENTS {
            let mut e = Event::faa_position(seq, (seq % 64) as u32, fix());
            e.stamp.advance(0, seq);
            publisher.publish(e.into());
        }
        mirror.stop();
        if mirror.processed() != EVENTS {
            short.push((run, mirror.processed()));
        }
    }
    assert!(
        short.is_empty(),
        "runs that lost published events (run, processed of {EVENTS}): {short:?}"
    );
}
