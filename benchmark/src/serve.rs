//! The loopback serve tier of the traced batch runs.
//!
//! A traced run sends some of its jobs, one at a time, through a fresh
//! `SpawnedServer` on loopback and reads back the server's
//! `{"type":"metrics"}` histograms and `{"type":"stats"}` snapshot, so the
//! wire, queue and dedup layers are measured on every workload.

use std::time::Instant;

use mwl_driver::BatchJob;
use mwl_serve::wire::JobConfig;
use mwl_serve::{
    Client, Request, ServerConfig, SpawnedServer, SubmitAck, SubmitRequest, WireGraph, WireOutcome,
};

use crate::check::nproc;
use crate::layers::{Layers, ServeLayer};

/// The server configuration: default queue, at most two workers.
fn server_config() -> ServerConfig {
    ServerConfig::default().with_workers(nproc().min(2))
}

/// The wire form of a job (the allocator defaults plus an optional
/// portfolio pair, as `JobConfig::default()` lowers to `AllocConfig::new`).
fn to_submit(id: u64, job: &BatchJob) -> SubmitRequest {
    SubmitRequest {
        id,
        label: Some(job.label.clone()),
        priority: 0,
        graph: WireGraph::from_graph(&job.graph),
        latency: job.latency,
        config: JobConfig {
            portfolio_seed: job.portfolio.map(|spec| spec.seed),
            portfolio_variants: job.portfolio.map(|spec| spec.variants as u64),
            ..JobConfig::default()
        },
    }
}

/// One request's fate.
#[derive(Debug, Clone)]
struct Sent {
    due: Instant,
    sent: Instant,
    done: Instant,
    answer: Result<WireOutcome, String>,
    encode_ns: f64,
}

impl Sent {
    fn lag_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

fn send_one(client: &mut Client, id: u64, job: &BatchJob, due: Instant) -> Sent {
    let submit = to_submit(id, job);
    let start = Instant::now();
    std::hint::black_box(Request::Submit(submit.clone()).encode());
    let encode_ns = start.elapsed().as_nanos() as f64;
    let sent = Instant::now();
    let answer = match client.submit(submit) {
        Ok(SubmitAck::Accepted) => match client.next_result() {
            Ok((got, outcome)) if got == id => Ok(outcome),
            Ok((got, _)) => Err(format!("result for {got} while waiting for {id}")),
            Err(e) => Err(e.to_string()),
        },
        Ok(SubmitAck::Rejected { reason, .. }) => Err(format!("rejected: {reason}")),
        Err(e) => Err(e.to_string()),
    };
    Sent {
        due,
        sent,
        done: Instant::now(),
        answer,
        encode_ns,
    }
}

/// A server with one connection for the jobs and one for its `stats`
/// and `metrics` queries.
struct Connections {
    server: SpawnedServer,
    client: Client,
    poller: Client,
}

impl Connections {
    /// Connects both clients and waits until the server has accepted each
    /// (untimed: the accept loop polls every 50 ms).
    fn connect(server: SpawnedServer) -> Result<Connections, String> {
        let connect = || -> Result<Client, String> {
            let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
            client.ping().map_err(|e| e.to_string())?;
            Ok(client)
        };
        let (client, poller) = (connect()?, connect()?);
        Ok(Connections {
            server,
            client,
            poller,
        })
    }

    fn close(self) {
        drop(self.client);
        drop(self.poller);
        let _ = self.server.stop_and_join();
    }
}

/// The loopback serve tier of a traced batch run: the jobs go one at a
/// time (closed loop) through a fresh server.  Returns the failed count.
pub fn serve_probe(jobs: &[BatchJob], layers: &mut Layers) -> u64 {
    let Ok(server) = SpawnedServer::start(server_config()) else {
        layers
            .errors
            .push("serve probe: server did not start".into());
        return jobs.len() as u64;
    };
    let mut conns = match Connections::connect(server) {
        Ok(s) => s,
        Err(e) => {
            layers.errors.push(format!("serve probe: {e}"));
            return jobs.len() as u64;
        }
    };
    let mut failed = 0;
    let mut round_trips = Vec::new();
    let mut encode = Vec::new();
    let mut lags = Vec::new();
    let mut depth_max = 0;
    let mut due = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        let s = send_one(&mut conns.client, i as u64, job, due);
        layers
            .spans
            .record("serve.round_trip", s.sent, s.done, i as u64);
        match &s.answer {
            Ok(WireOutcome::Ok(_)) => {
                round_trips.push(s.done.duration_since(s.sent).as_secs_f64() * 1e3)
            }
            _ => failed += 1,
        }
        encode.push(s.encode_ns);
        lags.push(s.lag_ms());
        if let Ok(stats) = conns.poller.stats() {
            depth_max = depth_max.max(stats.queue_depth);
        }
        due = Instant::now();
    }
    let reply = conns.poller.metrics();
    let stats = conns.poller.stats();
    conns.close();
    match (reply, stats) {
        (Ok(reply), Ok(stats)) => {
            layers.serve = ServeLayer::new(&reply, &stats, &round_trips, &encode, &lags, depth_max);
        }
        _ => layers
            .errors
            .push("serve probe: metrics unavailable".into()),
    }
    failed
}
