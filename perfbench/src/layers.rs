//! Layer microbenchmarks, timed from this package through each crate's
//! public functions: the substrates the pipeline stages call (`branch`,
//! `mem`, `isa`, the `core` register file and map table) and the phases
//! of a served request (`serve` and `testkit`).

use crate::gen::Body;
use crate::measure::{median, ns_per_op, timed};
use multipath_branch::{BranchPredictor, GlobalHistory};
use multipath_core::map::MapTable;
use multipath_core::regfile::RegFiles;
use multipath_core::{CtxId, PhysReg, SimConfig};
use multipath_isa::{Inst, Reg, NUM_LOGICAL_REGS};
use multipath_mem::{Asid, HierarchyConfig, MemoryHierarchy};
use multipath_serve::{http, Fetched, ResultCache, RunRequest};
use multipath_testkit::Json;
use multipath_workload::{kernels, Benchmark, SplitMix64, DATA_BASE};
use std::hint::black_box;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Timed samples per microbenchmark (the median is reported).
const SAMPLES: usize = 9;
/// Events per branch and memory sample.
const EVENTS: usize = 1 << 16;

/// One resolved conditional branch of the synthetic stream.
struct BranchEvent {
    pc: u64,
    target: u64,
    taken: bool,
    /// Global history at prediction time, from a training pass.
    history: u64,
    /// The direction predicted in the training pass.
    predicted: bool,
}

/// Substrate microbenchmarks over inputs made from the eight kernels
/// built with `seed`: `(metric, ns per operation, unit)`.
pub fn substrates(seed: u64) -> Vec<(&'static str, f64, &'static str)> {
    let programs: Vec<_> = Benchmark::ALL
        .into_iter()
        .map(|b| kernels::build(b, seed))
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x7375_6273);
    let mut out = Vec::new();

    // isa: decode every code word of the eight kernels.
    let words: Vec<u32> = programs
        .iter()
        .flat_map(|p| p.text.iter().copied())
        .collect();
    let reps = EVENTS / words.len().max(1) + 1;
    out.push((
        "isa.decode_ns",
        ns_per_op(SAMPLES, reps * words.len(), || {
            for _ in 0..reps {
                for &w in &words {
                    black_box(Inst::decode(black_box(w)));
                }
            }
        }),
        "ns",
    ));

    // branch: a stream over the kernels' conditional branches, each with
    // a fixed bias, trained once so the tables hold realistic state.
    let branches: Vec<(u64, u64)> = programs
        .iter()
        .flat_map(|p| {
            p.text.iter().enumerate().filter_map(|(i, &w)| {
                let inst = Inst::decode(w)?;
                let pc = p.text_base + 4 * i as u64;
                inst.op
                    .is_cond_branch()
                    .then(|| (pc, inst.direct_target(pc)))
            })
        })
        .collect();
    let sites: Vec<(u64, u64, f64)> = branches
        .into_iter()
        .map(|(pc, target)| (pc, target, [0.02, 0.5, 0.98][rng.next_below(3) as usize]))
        .collect();
    let mut bp = BranchPredictor::new(SimConfig::big_2_16().predictor);
    let mut history = GlobalHistory::new(bp.history_bits());
    let events: Vec<BranchEvent> = (0..EVENTS)
        .map(|_| {
            let (pc, target, bias) = sites[rng.next_below(sites.len() as u64) as usize];
            let taken = rng.chance(bias);
            let predicted = bp.predict(pc, &history).taken;
            let e = BranchEvent {
                pc,
                target,
                taken,
                history: history.bits(),
                predicted,
            };
            bp.update(pc, e.history, taken, predicted);
            history.push(taken);
            e
        })
        .collect();
    out.push((
        "branch.predict_ns",
        ns_per_op(SAMPLES, EVENTS, || {
            let mut h = GlobalHistory::new(bp.history_bits());
            for e in &events {
                black_box(bp.predict(e.pc, &h));
                h.push(e.taken);
            }
        }),
        "ns",
    ));
    let mut trained = bp.clone();
    out.push((
        "branch.update_ns",
        ns_per_op(SAMPLES, EVENTS, || {
            for e in &events {
                trained.update(e.pc, e.history, e.taken, e.predicted);
            }
            black_box(&trained);
        }),
        "ns",
    ));
    out.push((
        "branch.btb_ns",
        ns_per_op(SAMPLES, EVENTS, || {
            for e in &events {
                black_box(trained.predict_target(e.pc));
                trained.update_target(e.pc, e.target);
            }
        }),
        "ns",
    ));
    out.push((
        "branch.confidence_ns",
        ns_per_op(SAMPLES, EVENTS, || {
            for e in &events {
                black_box(bp.confidence_level(e.pc, e.history));
            }
        }),
        "ns",
    ));

    // mem: fetch blocks over every kernel's text (one address space per
    // kernel), then data streams inside and well beyond the 64 KB L1D.
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::baseline());
    let fetches: Vec<(Asid, u64)> = programs
        .iter()
        .enumerate()
        .flat_map(|(k, p)| {
            (p.text_base..p.text_end())
                .step_by(32)
                .map(move |a| (Asid(k as u16), a))
        })
        .collect();
    let mut now = 0u64;
    out.push((
        "mem.inst_access_ns",
        ns_per_op(SAMPLES, fetches.len(), || {
            for &(asid, addr) in &fetches {
                black_box(hierarchy.inst_access(asid, addr, now));
                now += 1;
            }
        }),
        "ns",
    ));
    for (name, span) in [
        ("mem.data_access_l1_ns", 32u64 << 10),
        ("mem.data_access_l2_ns", 192 << 10),
    ] {
        let accesses: Vec<(u64, bool)> = (0..EVENTS)
            .map(|_| (DATA_BASE + 8 * rng.next_below(span / 8), rng.chance(0.25)))
            .collect();
        out.push((
            name,
            ns_per_op(SAMPLES, EVENTS, || {
                for &(addr, store) in &accesses {
                    black_box(hierarchy.data_access(Asid(0), addr, store, now));
                    now += 1;
                }
            }),
            "ns",
        ));
    }

    // core: register-file allocate + release, and map-table set + get,
    // sized like the baseline machine.
    let config = SimConfig::big_2_16();
    let mut regs = RegFiles::new(config.phys_int, config.phys_fp);
    let mut held = Vec::with_capacity(64);
    let rounds = EVENTS / 64;
    out.push((
        "core.regfile_ns",
        ns_per_op(SAMPLES, rounds * 64, || {
            for _ in 0..rounds {
                for i in 0..64 {
                    held.push(
                        regs.alloc(i % 4 == 0)
                            .expect("files hold 64 free registers"),
                    );
                }
                for r in held.drain(..) {
                    regs.release(r);
                }
            }
        }),
        "ns",
    ));
    let mut map = MapTable::new(config.contexts);
    let updates: Vec<(CtxId, Reg, PhysReg)> = (0..EVENTS)
        .map(|_| {
            let reg = Reg::from_index(rng.next_below(NUM_LOGICAL_REGS as u64) as usize);
            let ctx = CtxId(rng.next_below(config.contexts as u64) as u8);
            let preg = PhysReg {
                fp: !reg.is_int(),
                index: rng.next_below(256) as u16,
            };
            (ctx, reg, preg)
        })
        .collect();
    out.push((
        "core.map_ns",
        ns_per_op(SAMPLES, EVENTS, || {
            for &(ctx, reg, preg) in &updates {
                black_box(map.set(ctx, reg, preg));
                black_box(map.get(ctx, reg));
            }
        }),
        "ns",
    ));
    out
}

/// Medians of the request phases the benchmark can time outside the
/// server, over the workload's own bodies and documents.
pub struct Phases {
    /// `http::read_request` of one request over a loopback socket, µs.
    pub read_us: f64,
    /// `RunRequest::parse`, µs.
    pub parse_us: f64,
    /// `cache_key` + `ResultCache::get_or_begin` (+ `fulfill` on a miss), µs.
    pub lookup_us: f64,
    /// `http::write_response` of one document over a loopback socket, µs.
    pub write_us: f64,
    /// `testkit::Json::parse` on the documents, ns per byte.
    pub json_ns_per_byte: f64,
}

/// Passes over the bodies per phase (the median covers all of them).
const PHASE_ROUNDS: usize = 5;

/// Times the serving phases for `bodies` and their `docs`. `hit` selects
/// the cache path the workload takes: a lookup in a warm cache, or a
/// miss followed by `fulfill`.
pub fn serve_phases(bodies: &[Body], docs: &[String], hit: bool) -> Result<Phases, String> {
    let io = |e: std::io::Error| format!("loopback socket: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;

    // read_request: the client writes one whole request, the server
    // side parses it from its buffered reader.
    let mut client = TcpStream::connect(addr).map_err(io)?;
    let mut reader = BufReader::new(listener.accept().map_err(io)?.0);
    let requests: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| {
            format!(
                "POST /v1/run HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
                 Connection: close\r\nContent-Type: application/json\r\n\r\n{}",
                b.text.len(),
                b.text
            )
            .into_bytes()
        })
        .collect();
    let mut read_us = Vec::new();
    for _ in 0..PHASE_ROUNDS {
        for request in &requests {
            client.write_all(request).map_err(io)?;
            let (parsed, t) = timed(|| http::read_request(&mut reader, 1 << 20));
            parsed.map_err(|e| format!("read_request: {e:?}"))?;
            read_us.push(t.as_secs_f64() * 1e6);
        }
    }
    drop((client, reader));

    let mut parse_us = Vec::new();
    let mut keys = Vec::new();
    for _ in 0..PHASE_ROUNDS {
        keys.clear();
        for b in bodies {
            let (run, t) = timed(|| RunRequest::parse(&b.text));
            parse_us.push(t.as_secs_f64() * 1e6);
            keys.push(run?.cache_key());
        }
    }

    let mut lookup_us = Vec::new();
    let warm = ResultCache::new(64 << 20);
    for (key, doc) in keys.iter().zip(docs) {
        if let Fetched::Miss(guard) = warm.get_or_begin(*key) {
            guard.fulfill(doc.clone());
        }
    }
    for _ in 0..PHASE_ROUNDS {
        let cold = ResultCache::new(64 << 20);
        for (b, doc) in bodies.iter().zip(docs) {
            let run = RunRequest::parse(&b.text)?;
            let doc = doc.clone();
            let (outcome, t) = timed(|| {
                let cache = if hit { &warm } else { &cold };
                match cache.get_or_begin(run.cache_key()) {
                    Fetched::Hit(_) => "hit",
                    Fetched::Coalesced(_) => "coalesced",
                    Fetched::Miss(guard) => {
                        guard.fulfill(doc);
                        "miss"
                    }
                }
            });
            if outcome != if hit { "hit" } else { "miss" } {
                return Err(format!("cache lookup gave {outcome}"));
            }
            lookup_us.push(t.as_secs_f64() * 1e6);
        }
    }

    // write_response: a drain thread reads the client side to EOF.
    let mut client = TcpStream::connect(addr).map_err(io)?;
    let mut server_side = listener.accept().map_err(io)?.0;
    let drain = std::thread::spawn(move || {
        let mut buf = vec![0u8; 1 << 16];
        let mut total = 0usize;
        while let Ok(n @ 1..) = client.read(&mut buf) {
            total += n;
        }
        total
    });
    let outcome = if hit { "hit" } else { "miss" };
    let mut write_us = Vec::new();
    let mut written = 0usize;
    let wrote = (0..PHASE_ROUNDS).flat_map(|_| docs).try_for_each(|doc| {
        let (r, t) = timed(|| {
            http::write_response(
                &mut server_side,
                200,
                "OK",
                "application/json",
                &[("X-Multipath-Cache", outcome)],
                doc.as_bytes(),
            )
        });
        written += doc.len();
        write_us.push(t.as_secs_f64() * 1e6);
        r
    });
    drop(server_side);
    let drained = drain.join().expect("drain thread panicked");
    wrote.map_err(io)?;
    if drained < written {
        return Err(format!("wrote {written} body bytes, client read {drained}"));
    }

    let bytes: usize = docs.iter().map(String::len).sum();
    let mut json = Vec::new();
    for _ in 0..PHASE_ROUNDS {
        let (parsed, t) = timed(|| docs.iter().map(|d| Json::parse(d)).collect::<Vec<_>>());
        if let Some(Err(e)) = parsed.into_iter().find(Result::is_err) {
            return Err(format!("document does not parse: {e}"));
        }
        json.push(t.as_secs_f64() * 1e9 / bytes.max(1) as f64);
    }

    Ok(Phases {
        read_us: median(&read_us),
        parse_us: median(&parse_us),
        lookup_us: median(&lookup_us),
        write_us: median(&write_us),
        json_ns_per_byte: median(&json),
    })
}
