//! Every refusal of the TCP connection handshake, through the public
//! calls a deployed process makes: the founders' bootstrap
//! (`TcpEndpoint::connect_among`), a member's mid-run admission
//! (`Endpoint::view_sync`) and a joiner's bootstrap
//! (`TcpEndpoint::connect_as_joiner`). The other side of each
//! connection is a raw socket scripted here, so each case sends exactly
//! the frame it names. Each refusal comes back as an error, well inside
//! the call's deadline, with no panic and no hang.

use rex_net::frame::{read_frame, write_frame, Frame};
use rex_net::tcp::{reserve_loopback_addrs, TcpEndpoint, TcpTransport};
use rex_net::transport::{Endpoint, Transport, TransportError};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Every handshake call's deadline. A refusal must come back in well
/// under half of it: a hang shows up as a timeout, not as the refusal.
const DEADLINE: Duration = Duration::from_secs(10);

/// Dials `addr` until its listener is up.
fn dial(addr: SocketAddr) -> TcpStream {
    let give_up = Instant::now() + DEADLINE;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(e) => {
                assert!(Instant::now() < give_up, "dialing {addr}: {e}");
                thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Runs `call` on its own thread while `other_side` plays the far end
/// of its connections (what `other_side` returns stays open until the
/// call is back); returns the call's refusal.
fn refused<T, E: Into<TransportError> + Send + 'static>(
    call: impl FnOnce() -> Result<TcpEndpoint, E> + Send + 'static,
    other_side: impl FnOnce() -> T,
) -> TransportError {
    let started = Instant::now();
    let victim = thread::spawn(call);
    let held = other_side();
    let result = victim.join().expect("the handshake call panicked");
    drop(held);
    assert!(
        started.elapsed() < DEADLINE / 2,
        "the refusal took {:?}",
        started.elapsed()
    );
    match result {
        Ok(_) => panic!("the handshake accepted what it should refuse"),
        Err(e) => e.into(),
    }
}

/// Node 1 of a two-founder mesh bootstraps while a stranger dials it and
/// writes `opening` (raw bytes, or nothing and a hang-up). Returns the
/// refusal's text.
fn founder_refusal(opening: &[u8]) -> String {
    let addrs = reserve_loopback_addrs(2).unwrap();
    let victim_addrs = addrs.clone();
    let opening = opening.to_vec();
    refused(
        move || TcpEndpoint::connect_among(1, &victim_addrs, &[0, 1], DEADLINE),
        move || {
            let stranger = dial(addrs[1]);
            (&stranger).write_all(&opening).unwrap();
            stranger.shutdown(Shutdown::Write).unwrap();
            stranger
        },
    )
    .to_string()
}

fn encoded(frame: &Frame) -> Vec<u8> {
    rex_net::frame::encode_frame(frame)
}

#[test]
fn founder_refuses_a_data_frame_as_opening() {
    let data = Frame::Data {
        from: 0,
        payload: vec![1, 2, 3],
    };
    let err = founder_refusal(&encoded(&data));
    assert!(err.contains("Data { from: 0"), "{err}");
}

#[test]
fn founder_refuses_garbage_as_opening() {
    let err = founder_refusal(&[0xFF; 16]);
    assert!(err.contains("invalid frame"), "{err}");
}

#[test]
fn founder_refuses_a_hang_up_before_the_opening() {
    let err = founder_refusal(&[]);
    assert!(err.contains("eof"), "{err}");
}

#[test]
fn founder_refuses_a_hello_from_outside_the_cluster() {
    let err = founder_refusal(&encoded(&Frame::Hello { from: 7 }));
    assert!(err.contains("Hello { from: 7 }"), "{err}");
}

#[test]
fn founder_refuses_a_hello_naming_itself() {
    let err = founder_refusal(&encoded(&Frame::Hello { from: 1 }));
    assert!(err.contains("Hello { from: 1 }"), "{err}");
}

#[test]
fn founder_refuses_a_second_hello_from_a_connected_peer() {
    // Node 2 of three founders waits for hellos from 0 and 1; a second
    // connection saying it is node 0 is refused, whichever of the two
    // it accepts first.
    let addrs = reserve_loopback_addrs(3).unwrap();
    let victim_addrs = addrs.clone();
    let err = refused(
        move || TcpEndpoint::connect_among(2, &victim_addrs, &[0, 1, 2], DEADLINE),
        move || {
            let hello = Frame::Hello { from: 0 };
            let [first, second] = [dial(addrs[2]), dial(addrs[2])];
            write_frame(&mut &first, &hello).unwrap();
            write_frame(&mut &second, &hello).unwrap();
            [first, second]
        },
    );
    let err = err.to_string();
    assert!(err.contains("Hello { from: 0 }"), "{err}");
}

/// Founders 0 and 1 mesh; node 1 then admits the scheduled joiner 2 at
/// epoch 1 while a stranger, dialing only once the mesh stands, opens
/// with `join`. Returns node 1's admission result.
fn admission_refusal(join: Frame) -> TransportError {
    let addrs = reserve_loopback_addrs(3).unwrap();
    let (meshed, mesh_stands) = mpsc::channel();
    let (done, finished) = mpsc::channel::<()>();
    let founder0 = {
        let addrs = addrs.clone();
        thread::spawn(move || {
            let ep = TcpEndpoint::connect_among(0, &addrs, &[0, 1], DEADLINE).unwrap();
            // Hold the connection until node 1's admission is over.
            let _ = finished.recv();
            drop(ep);
        })
    };
    let victim = {
        let addrs = addrs.clone();
        thread::spawn(move || {
            let mut ep = TcpEndpoint::connect_among(1, &addrs, &[0, 1], DEADLINE).unwrap();
            meshed.send(()).unwrap();
            let started = Instant::now();
            let result = ep.view_sync(1, &[2], &[]);
            (result, started.elapsed())
        })
    };
    mesh_stands.recv().unwrap();
    let stranger = dial(addrs[1]);
    write_frame(&mut &stranger, &join).unwrap();
    let (result, took) = victim.join().expect("the admission panicked");
    done.send(()).unwrap();
    founder0.join().unwrap();
    drop(stranger);
    assert!(took < DEADLINE / 2, "the refusal took {took:?}");
    result.expect_err("the admission accepted what it should refuse")
}

#[test]
fn admission_refuses_a_join_for_another_epoch() {
    let err = admission_refusal(Frame::Join {
        from: 2,
        epoch: 5,
        evidence: Vec::new(),
    });
    match err {
        TransportError::Protocol { peer: 2, detail } => {
            assert!(detail.contains("schedule says 1"), "{detail}");
        }
        other => panic!("expected a protocol refusal of peer 2, got {other}"),
    }
}

#[test]
fn admission_refuses_a_join_from_a_connected_peer() {
    let err = admission_refusal(Frame::Join {
        from: 0,
        epoch: 1,
        evidence: Vec::new(),
    });
    assert!(
        matches!(err, TransportError::Protocol { peer: 0, .. }),
        "expected a protocol refusal of peer 0, got {err}"
    );
}

/// A scripted member at `listener`: reads the joiner's `Join`, answers
/// `reply`, and keeps the connection open until the joiner is done.
fn scripted_member(listener: TcpListener, reply: Frame) -> JoinHandle<TcpStream> {
    thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        match read_frame(&mut &stream).unwrap() {
            Some(Frame::Join {
                from: 2, epoch: 1, ..
            }) => {}
            other => panic!("expected joiner 2's join for epoch 1, got {other:?}"),
        }
        write_frame(&mut &stream, &reply).unwrap();
        stream
    })
}

/// Joiner 2 (epoch 1) dials members `0..replies.len()`, each answering
/// with its reply in turn. Returns the joiner's refusal.
fn joiner_refusal(replies: Vec<Frame>) -> TransportError {
    let addrs = reserve_loopback_addrs(3).unwrap();
    let members: Vec<TcpListener> = addrs[..replies.len()]
        .iter()
        .map(|&a| TcpListener::bind(a).unwrap())
        .collect();
    let dial: Vec<usize> = (0..replies.len()).collect();
    refused(
        move || TcpEndpoint::connect_as_joiner(2, &addrs, 1, &dial, &[], Vec::new(), DEADLINE),
        move || {
            let scripts: Vec<_> = members
                .into_iter()
                .zip(replies)
                .map(|(listener, reply)| scripted_member(listener, reply))
                .collect();
            scripts
                .into_iter()
                .map(|s| s.join().unwrap())
                .collect::<Vec<_>>()
        },
    )
}

fn welcome(from: usize, epoch: u64, generation: u64) -> Frame {
    Frame::Welcome {
        from,
        epoch,
        generation,
    }
}

#[test]
fn joiner_refuses_a_reply_that_is_not_a_welcome() {
    let err = joiner_refusal(vec![Frame::Hello { from: 0 }]);
    assert!(
        matches!(err, TransportError::Protocol { peer: 0, .. }),
        "expected a protocol refusal of peer 0, got {err}"
    );
}

#[test]
fn joiner_refuses_a_welcome_for_another_epoch() {
    match joiner_refusal(vec![welcome(0, 2, 0)]) {
        TransportError::Protocol { peer: 0, detail } => {
            assert!(detail.contains("welcomed epoch 2"), "{detail}");
        }
        other => panic!("expected a protocol refusal of peer 0, got {other}"),
    }
}

#[test]
fn joiner_refuses_members_whose_generations_disagree() {
    match joiner_refusal(vec![welcome(0, 1, 3), welcome(1, 1, 4)]) {
        TransportError::Protocol { peer: 1, detail } => {
            assert!(detail.contains("generation 4"), "{detail}");
        }
        other => panic!("expected a protocol refusal of peer 1, got {other}"),
    }
}

/// Forwards bytes both ways between `a` and `b` until each side hangs up.
fn splice(a: TcpStream, b: TcpStream) -> [JoinHandle<()>; 2] {
    let pipe = |mut from: TcpStream, mut to: TcpStream| {
        thread::spawn(move || {
            let _ = io::copy(&mut from, &mut to);
            let _ = to.shutdown(Shutdown::Write);
        })
    };
    [
        pipe(a.try_clone().unwrap(), b.try_clone().unwrap()),
        pipe(b, a),
    ]
}

#[test]
fn joiner_dialing_before_the_mesh_is_parked_and_admitted_at_its_epoch() {
    // Node 1's bootstrap accepts the joiner's connection before founder
    // 0's hello, by construction: a placeholder listener holds founder
    // 0's address, so founder 0 cannot bind (and so cannot dial) until
    // the joiner, which dials node 1 first, has reached the
    // placeholder. The placeholder's connection is then spliced through
    // to the real founder 0.
    let addrs = reserve_loopback_addrs(3).unwrap();
    let placeholder = TcpListener::bind(addrs[0]).unwrap();
    let member = |id: usize, addrs: Vec<SocketAddr>| {
        thread::spawn(move || {
            let mut ep = TcpEndpoint::connect_among(id, &addrs, &[0, 1], DEADLINE).unwrap();
            ep.view_sync(1, &[2], &[]).unwrap();
            assert_eq!(ep.join_evidence(2).as_deref(), Some(&b"quote"[..]));
            ep
        })
    };
    let founder1 = member(1, addrs.clone());
    let joiner = {
        let addrs = addrs.clone();
        thread::spawn(move || {
            TcpEndpoint::connect_as_joiner(2, &addrs, 1, &[1, 0], &[], b"quote".to_vec(), DEADLINE)
                .unwrap()
        })
    };
    let (to_joiner, _) = placeholder.accept().unwrap();
    drop(placeholder);
    let founder0 = member(0, addrs.clone());
    let pipes = splice(to_joiner, dial(addrs[0]));

    let mut eps = vec![
        founder0.join().unwrap(),
        founder1.join().unwrap(),
        joiner.join().unwrap(),
    ];
    // One round among all three: the joiner is in every barrier set and
    // mailbox.
    let rounds: Vec<_> = eps
        .drain(..)
        .map(|mut ep| {
            thread::spawn(move || {
                let id = Endpoint::id(&ep);
                ep.try_sync().unwrap();
                for peer in (0..3).filter(|&p| p != id) {
                    Endpoint::send(&mut ep, peer, vec![id as u8]);
                }
                ep.try_sync().unwrap();
                let senders: Vec<usize> = Endpoint::recv(&mut ep).iter().map(|e| e.from).collect();
                assert_eq!(senders, (0..3).filter(|&p| p != id).collect::<Vec<_>>());
                ep
            })
        })
        .collect();
    let eps: Vec<TcpEndpoint> = rounds.into_iter().map(|r| r.join().unwrap()).collect();
    drop(eps);
    for pipe in pipes {
        pipe.join().unwrap();
    }
}

#[test]
fn bootstrap_refuses_a_bad_config() {
    // Each of these panicked a deployed process once; each is now a
    // typed error from the call, before any socket waits.
    let addrs = reserve_loopback_addrs(3).unwrap();
    let founder =
        |id: usize, peers: &[usize]| TcpEndpoint::connect_among(id, &addrs, peers, DEADLINE).err();
    let joiner = |id: usize, dial: &[usize], accept_from: &[usize]| {
        TcpEndpoint::connect_as_joiner(id, &addrs, 1, dial, accept_from, Vec::new(), DEADLINE).err()
    };
    let cases = [
        ("founder id outside the cluster", founder(3, &[0, 3])),
        ("founder outside its own mesh", founder(0, &[1, 2])),
        ("founder peer outside the cluster", founder(0, &[0, 5])),
        ("joiner id outside the cluster", joiner(3, &[0], &[])),
        ("joiner dialing itself", joiner(2, &[0, 2], &[])),
        ("joiner dialing outside the cluster", joiner(2, &[7], &[])),
        (
            "joiner accepting from outside the cluster",
            joiner(2, &[], &[9]),
        ),
    ];
    for (what, err) in cases {
        assert!(
            matches!(err, Some(TransportError::Io { .. })),
            "{what}: {err:?}"
        );
    }
}

#[test]
fn handshake_frames_count_in_the_wire_volume_both_ways() {
    let len = |frame: &Frame| rex_net::frame::encode_frame(frame).len() as u64;
    // A loopback pair: node 0 dialed node 1 with its hello.
    let hello = len(&Frame::Hello { from: 0 });
    let pair = TcpTransport::loopback(2).unwrap().into_endpoints();
    assert_eq!(pair[0].wire_traffic(), (hello, 0));
    assert_eq!(pair[1].wire_traffic(), (0, hello));

    // Joiner 2 admitted by founders 0 and 1: each founder reads its join
    // and writes a welcome, the joiner the other way round.
    let addrs = reserve_loopback_addrs(3).unwrap();
    let founders = [0, 1].map(|id| {
        let addrs = addrs.clone();
        thread::spawn(move || {
            let mut ep = TcpEndpoint::connect_among(id, &addrs, &[0, 1], DEADLINE).unwrap();
            ep.view_sync(1, &[2], &[]).unwrap();
            ep
        })
    });
    let evidence = b"quote".to_vec();
    let joiner =
        TcpEndpoint::connect_as_joiner(2, &addrs, 1, &[0, 1], &[], evidence.clone(), DEADLINE)
            .unwrap();
    let [f0, f1] = founders.map(|f| f.join().unwrap());
    let join = len(&Frame::Join {
        from: 2,
        epoch: 1,
        evidence,
    });
    let welcome = len(&welcome(0, 1, 0));
    assert_eq!(f0.wire_traffic(), (hello + welcome, join));
    assert_eq!(f1.wire_traffic(), (welcome, hello + join));
    assert_eq!(joiner.wire_traffic(), (2 * join, 2 * welcome));
}
