//! End-to-end tests of the embedded observability server: a live
//! in-process scrape (two monotone `/metrics` scrapes against a running
//! registry — the `--obs-listen` contract), a golden exposition body,
//! and fuzz-ish robustness of the HTTP request parser (malformed input
//! maps to error statuses, never a panic, and never kills the accept
//! loop).

use dsa_obs::serve::{self, http_get};
use dsa_obs::{expo, Snapshot};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Mutex;

/// The enable flags and registries are process-global; serialize every
/// test that touches them (same pattern as the crate's unit tests).
static LOCK: Mutex<()> = Mutex::new(());

/// A snapshot with one of each instrument kind, built directly (not via
/// the global registry) so it is identical on every run.
fn golden_snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    snap.counters.insert("cache.hit".to_string(), 3);
    snap.counters.insert("cache.miss.seed".to_string(), 1);
    snap.gauges.insert("evo.cells_per_sec".to_string(), 1234.5);
    snap.gauges
        .insert("mem.rss_bytes".to_string(), (40u64 << 20) as f64);
    snap.gauges
        .insert("mem.rss_peak_bytes".to_string(), (48u64 << 20) as f64);
    snap.gauges
        .insert("mem.arena_peak_bytes".to_string(), (3u64 << 20) as f64);
    let mut h = dsa_obs::Hist::default();
    for v in [0, 1, 900] {
        h.record(v);
    }
    snap.hists.insert("attacks.cell_ns".to_string(), h);
    let mut dur = dsa_obs::Hist::default();
    dur.record(1_000_000);
    snap.spans.insert(
        "swarm.run".to_string(),
        dsa_obs::SpanStats {
            dur,
            self_ns: 800_000,
        },
    );
    snap
}

#[test]
fn exposition_matches_the_golden_body() {
    // The checked-in fixture pins the exact exposition format: HELP/TYPE
    // lines, name mangling, cumulative histogram buckets, span series.
    // A diff here means the wire format changed — update the fixture
    // deliberately, and treat it as a breaking change for scrapers.
    let body = expo::render(&golden_snapshot()).unwrap();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_metrics.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &body).unwrap();
        return;
    }
    let golden = include_str!("golden_metrics.txt");
    assert_eq!(
        body, golden,
        "exposition drifted from tests/golden_metrics.txt \
         (UPDATE_GOLDEN=1 regenerates it)"
    );
}

#[test]
fn live_scrapes_are_valid_and_monotone() {
    let _g = LOCK.lock().unwrap();
    dsa_obs::enable_metrics();
    dsa_obs::reset();
    dsa_obs::incr("test.live.events");
    dsa_obs::observe("test.live.lat_ns", 700);
    dsa_obs::gauge_set("test.live.rows_per_sec", 10.0);

    let addr = serve::spawn("127.0.0.1:0").unwrap();
    let addr = addr.to_string();

    let (status, body1) = http_get(&addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let scrape1 = expo::parse(&body1).unwrap();
    assert!(scrape1.value("dsa_test_live_events_total").unwrap() >= 1.0);

    // The run advances between scrapes; counters must only grow.
    dsa_obs::incr("test.live.events");
    dsa_obs::observe("test.live.lat_ns", 90_000);
    dsa_obs::gauge_set("test.live.rows_per_sec", 7.0); // gauges may move freely

    let (status, body2) = http_get(&addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let scrape2 = expo::parse(&body2).unwrap();
    expo::check_monotone(&scrape1, &scrape2).unwrap();
    // The server's self-instrumentation counted the first scrape.
    assert!(
        scrape2.value("dsa_serve_requests_total").unwrap()
            >= scrape1.value("dsa_serve_requests_total").unwrap()
    );

    // /snapshot serves the same registry as JSON, and it round-trips.
    let (status, body) = http_get(&addr, "/snapshot").unwrap();
    assert_eq!(status, 200);
    let snap = Snapshot::from_json(&body).unwrap();
    assert!(snap.counters["test.live.events"] >= 2);

    // The journal is queried through the CLI, not over HTTP.
    let (status, _) = http_get(&addr, "/runs").unwrap();
    assert_eq!(status, 404);

    dsa_obs::disable();
    dsa_obs::reset();
}

#[test]
fn malformed_requests_get_error_statuses_and_never_kill_the_server() {
    let _g = LOCK.lock().unwrap();
    let addr = serve::spawn("127.0.0.1:0").unwrap().to_string();

    let send_raw = |raw: &[u8]| -> String {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    };

    for (raw, status) in [
        (&b"BLAH\r\n\r\n"[..], "400"),
        (b"POST /metrics HTTP/1.1\r\n\r\n", "405"),
        (b"GET /metrics SMTP/3\r\n\r\n", "400"),
        (b"\x00\xff\xfe\r\n\r\n", "400"),
        (b"GET /unknown HTTP/1.1\r\n\r\n", "404"),
    ] {
        let reply = send_raw(raw);
        let got = reply.split(' ').nth(1).unwrap_or("<no status>");
        assert_eq!(got, status, "request {raw:?} got:\n{reply}");
    }

    // An oversized head is rejected with 414, not buffered forever.
    let mut huge = b"GET /".to_vec();
    huge.extend(std::iter::repeat_n(b'a', serve::MAX_HEAD_BYTES + 100));
    huge.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    assert!(send_raw(&huge).contains("414"));

    // After all that abuse, the server still answers.
    let (status, body) = http_get(&addr, "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
}

#[test]
fn request_parser_survives_random_bytes() {
    // Fuzz-ish: the parser is a total function — feed it a few thousand
    // pseudo-random heads (deterministic LCG; no dev-dependencies in
    // this crate) and require an Ok or a known error status, no panic.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for round in 0..4000 {
        let len = (next() % 200) as usize;
        let mut head: Vec<u8> = (0..len).map(|_| (next() % 256) as u8).collect();
        if round % 3 == 0 {
            // Bias a third of the inputs toward almost-valid requests:
            // random mutations of a correct head exercise deeper paths.
            let mut base = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
            let at = (next() as usize) % base.len();
            base[at] = (next() % 256) as u8;
            head = base;
        }
        match dsa_obs::serve::parse_request(&head) {
            Ok(req) => assert!(req.path.starts_with('/')),
            Err(status) => assert!(
                matches!(status, 400 | 414),
                "unexpected status {status} for {head:?}"
            ),
        }
    }
}
