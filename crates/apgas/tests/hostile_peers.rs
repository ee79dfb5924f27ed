//! Hostile peers: a wire message the receiver cannot act on is a typed peer
//! fault, not a crash. Each malformed frame below is injected as if sent by
//! place 1 to place 0 of a live runtime. The receiver must refuse it, count
//! it and kill the sender, keep serving everyone else, and a finish that
//! waits on the sender must end in `ApgasError::DeadPlace`.

use apgas::finish::Attach;
use apgas::{ApgasError, Config, HandlerId, MsgClass, PlaceId, Runtime};
use std::sync::Arc;
use std::time::{Duration, Instant};
use x10rt::codec::{self, WireMsg};
use x10rt::{Envelope, LocalTransport, Transport};

/// One malformed frame per way a peer can violate the wire protocol.
fn hostile_frames() -> Vec<(&'static str, MsgClass, WireMsg)> {
    // Bytes no decoder accepts: an unknown tag, then too little to read.
    let garbage = |h| WireMsg::new(h, vec![0xEE; 3]);
    let closure_spawn = apgas::wire::encode_spawn_closure(&Attach::Uncounted);
    vec![
        ("H_SPAWN", MsgClass::Task, garbage(codec::H_SPAWN)),
        ("H_FINISH", MsgClass::FinishCtl, garbage(codec::H_FINISH)),
        ("H_TEAM", MsgClass::Team, garbage(codec::H_TEAM)),
        ("H_CLOCK", MsgClass::Clock, garbage(codec::H_CLOCK)),
        ("H_OBS", MsgClass::System, garbage(codec::H_OBS)),
        (
            "unknown handler",
            MsgClass::System,
            garbage(HandlerId::FIRST_APP),
        ),
        (
            "closure spawn without its closure",
            MsgClass::Task,
            WireMsg::new(codec::H_SPAWN, closure_spawn),
        ),
    ]
}

#[test]
fn malformed_frames_kill_the_sender_not_the_receiver() {
    let (receiver, sender, bystander) = (PlaceId(0), PlaceId(1), PlaceId(2));
    for (what, class, msg) in hostile_frames() {
        let transport = Arc::new(LocalTransport::new(3));
        let cfg = Config::new(3).finish_watchdog(Duration::from_millis(300));
        let rt = Runtime::with_transport(cfg, transport.clone());
        transport
            .send(Envelope::new(sender, receiver, class, 8, Box::new(msg)))
            .expect("the sender is alive when it sends");

        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.dead_places() != [sender] {
            assert!(Instant::now() < deadline, "{what}: sender never killed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let faults = rt
            .obs()
            .unwrap()
            .metrics
            .counter(obs::names::WIRE_PEER_FAULTS);
        assert_eq!(faults.value(), 1, "{what}: peer fault not counted");

        // The receiver survives and still reaches live places.
        assert_eq!(
            rt.run(move |ctx| ctx.at(bystander, |c| c.here().0)),
            2,
            "{what}"
        );

        // A finish waiting on the dead sender ends typed, not hung.
        let waited = rt.run_checked(move |ctx| ctx.at_async(sender, |_| {}));
        assert!(
            matches!(waited, Err(ApgasError::DeadPlace { .. })),
            "{what}: finish on the killed sender ended {waited:?}"
        );
    }
}
