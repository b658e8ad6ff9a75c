//! Daemon processes and the connections that talk to them.
//!
//! Every daemon runs in a child process of this same binary
//! (`ladder-bench daemon …`), hosted through `spanner_serve`'s public
//! `Server` API, so its peak resident set can be read from `/proc` apart
//! from the load generator's. A [`Daemon`] kills and reaps its child when
//! dropped, so no exit path of the benchmark leaves a process behind.

use spanner_serve::{Client, HttpClient, Json, RouterOptions, ServeOptions, Server};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one daemon process is configured.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    /// Serve HTTP/1.1 instead of the line protocol.
    pub http: bool,
    /// Connection worker threads (`ServeOptions::threads`).
    pub threads: usize,
    /// Corpus pool threads (`ServeOptions::corpus_threads`).
    pub corpus_threads: usize,
    /// Raise the line and body caps to 8 MiB, so a whole corpus can be
    /// loaded in one request (the router partitions one `load_corpus`
    /// evenly; appends would all land on its last shard).
    pub big_requests: bool,
    /// A shard router over every daemon started before it.
    pub router: bool,
}

impl DaemonSpec {
    /// The metadata record of this daemon.
    pub fn describe(&self) -> Json {
        let role = match (self.router, self.http) {
            (false, false) => "line",
            (false, true) => "http",
            (true, false) => "router-line",
            (true, true) => "router-http",
        };
        Json::object([
            ("role", Json::string(role)),
            ("threads", Json::number(self.threads)),
            ("corpus_threads", Json::number(self.corpus_threads)),
        ])
    }
}

/// Entry point of a daemon child: `daemon <http> <threads> <corpus_threads>
/// <big> [backend…]`. Prints the bound address on the first stdout line,
/// then serves until a `shutdown` request.
pub fn host(args: &[String]) -> i32 {
    match host_inner(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("ladder-bench daemon: {e}");
            1
        }
    }
}

fn host_inner(args: &[String]) -> Result<(), String> {
    let flag = |i: usize| args.get(i).map(|s| s == "1").ok_or("missing argument");
    let count = |i: usize| -> Result<usize, String> {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("argument {i} must be a count"))
    };
    let http = flag(0)?;
    let big = flag(3)?;
    let mut options = ServeOptions {
        threads: count(1)?,
        corpus_threads: count(2)?,
        http,
        ..ServeOptions::default()
    };
    if big {
        options.max_line_bytes = 8 << 20;
        options.max_body_bytes = 8 << 20;
    }
    let backends: Vec<String> = args[4..].to_vec();
    let server = if backends.is_empty() {
        Server::bind("127.0.0.1:0", options)
    } else {
        let router = RouterOptions {
            backends,
            ..RouterOptions::default()
        };
        Server::bind_router("127.0.0.1:0", options, router)
    }
    .map_err(|e| format!("bind: {e}"))?;
    println!("{}", server.local_addr());
    server.run().map_err(|e| format!("serve: {e}"))
}

/// A running daemon child process.
pub struct Daemon {
    child: Child,
    /// The address it serves on.
    pub addr: SocketAddr,
    /// Whether it speaks HTTP.
    pub http: bool,
    /// Requests the generator sent it, and error responses it returned
    /// (the generator's own tally, checked against the daemon's `stats`).
    pub tally: Arc<Tally>,
}

/// The generator's per-daemon request tally.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub requests: AtomicU64,
    /// Responses that were not `ok`.
    pub errors: AtomicU64,
}

impl Daemon {
    /// Starts a daemon child and waits for its bound address; a router
    /// spec routes to `backends`.
    pub fn spawn(spec: &DaemonSpec, backends: &[SocketAddr]) -> io::Result<Daemon> {
        let bit = |b: bool| if b { "1" } else { "0" };
        let mut command = Command::new(std::env::current_exe()?);
        command
            .arg("daemon")
            .arg(bit(spec.http))
            .arg(spec.threads.to_string())
            .arg(spec.corpus_threads.to_string())
            .arg(bit(spec.big_requests))
            .args(
                backends
                    .iter()
                    .filter(|_| spec.router)
                    .map(SocketAddr::to_string),
            )
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let mut child = command.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon did not report its address (got {line:?})"
            )));
        };
        Ok(Daemon {
            child,
            addr,
            http: spec.http,
            tally: Arc::new(Tally::default()),
        })
    }

    /// A new connection, counted in this daemon's tally.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(self.addr, self.http, Arc::clone(&self.tally))
    }

    /// Peak resident set of the process (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))
    }

    /// Sends `shutdown` and reaps the process (killing it if it does not
    /// exit within a few seconds).
    pub fn shutdown(mut self) -> io::Result<()> {
        let acknowledged = self
            .connect()
            .and_then(|mut c| c.call("shutdown", Json::Null));
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return acknowledged.map(drop);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("daemon did not exit after shutdown"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request, pre-rendered for both transports so nothing but the
/// round trip happens inside the timed section.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// The line-protocol request line.
    pub line: String,
    /// The HTTP path (`/v1/…`).
    pub path: &'static str,
    /// The HTTP JSON body.
    pub body: Json,
}

impl WireRequest {
    /// Builds the request for protocol op `op` with the given fields.
    pub fn new(op: &str, fields: Vec<(&str, Json)>) -> WireRequest {
        let path = match op {
            "query" => "/v1/query",
            "query_corpus" => "/v1/query_corpus",
            "prepare" => "/v1/prepare",
            "load_corpus" => "/v1/corpus",
            "append_docs" => "/v1/corpus/append",
            "update_doc" => "/v1/corpus/update",
            "delete_docs" => "/v1/corpus/delete",
            "stats" => "/v1/stats",
            "shutdown" => "/v1/shutdown",
            other => panic!("no HTTP endpoint for op `{other}`"),
        };
        let body = Json::object(fields.iter().map(|(k, v)| (*k, v.clone())));
        let mut line_fields = vec![("op", Json::string(op))];
        line_fields.extend(fields);
        WireRequest {
            line: Json::object(line_fields).to_string(),
            path,
            body,
        }
    }
}

/// A client connection over either transport.
pub struct Conn {
    inner: Transport,
    tally: Arc<Tally>,
}

enum Transport {
    Line(Client),
    Http(HttpClient),
}

impl Conn {
    /// Connects to `addr`, counting requests in `tally`.
    pub fn connect(addr: SocketAddr, http: bool, tally: Arc<Tally>) -> io::Result<Conn> {
        let inner = if http {
            Transport::Http(HttpClient::connect(addr)?)
        } else {
            Transport::Line(Client::connect(addr)?)
        };
        Ok(Conn { inner, tally })
    }

    /// One round trip, returning the raw response body. This is the timed
    /// unit: first request byte written to last response byte read.
    pub fn send(&mut self, request: &WireRequest) -> io::Result<String> {
        self.tally.requests.fetch_add(1, Ordering::Relaxed);
        match &mut self.inner {
            Transport::Line(c) => c.request_line(&request.line),
            Transport::Http(c) => Ok(c.post_json(request.path, &request.body)?.text()),
        }
    }

    /// Records an error response in the tally (the caller decides what an
    /// error is, after the timed section).
    pub fn count_error(&self) {
        self.tally.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Sends op `op` (with `fields`, an object or `Null`) and returns the
    /// parsed response, failing on anything but `"ok": true`.
    pub fn call(&mut self, op: &str, fields: Json) -> io::Result<Json> {
        let fields = match fields {
            Json::Object(pairs) => pairs,
            _ => Vec::new(),
        };
        let request = WireRequest::new(
            op,
            fields
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect(),
        );
        let raw = self.send(&request)?;
        let response = Json::parse(&raw)
            .map_err(|e| io::Error::other(format!("`{op}`: unparsable response: {e}")))?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            self.count_error();
            return Err(io::Error::other(format!("`{op}` failed: {raw:.300}")));
        }
        Ok(response)
    }

    /// The daemon's `stats` object.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.call("stats", Json::Null)
    }

    /// The daemon's metrics registry in Prometheus text exposition.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.tally.requests.fetch_add(1, Ordering::Relaxed);
        match &mut self.inner {
            Transport::Line(c) => c
                .metrics()?
                .get("metrics")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| io::Error::other("`metrics` response without text")),
            Transport::Http(c) => Ok(c.get("/metrics")?.text()),
        }
    }
}

/// One sample of a text exposition: the value on the line that starts
/// with `series` (name plus label set, exactly as rendered), or 0 when
/// the series is absent.
pub fn exposition_value(text: &str, series: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(series))
        .find_map(|rest| rest.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_values_match_whole_series_names() {
        let text = "# TYPE x counter\nspanner_view_docs_total{outcome=\"hit\"} 12\n\
                    spanner_view_docs_total{outcome=\"miss\"} 3\nspanner_up 1.5\n";
        assert_eq!(
            exposition_value(text, "spanner_view_docs_total{outcome=\"miss\"}"),
            3.0
        );
        assert_eq!(exposition_value(text, "spanner_up"), 1.5);
        assert_eq!(exposition_value(text, "spanner_u"), 0.0);
    }

    #[test]
    fn wire_requests_render_for_both_transports() {
        let r = WireRequest::new("query_corpus", vec![("program", Json::string("/a/"))]);
        assert_eq!(r.line, r#"{"op":"query_corpus","program":"/a/"}"#);
        assert_eq!(r.path, "/v1/query_corpus");
        assert_eq!(r.body.to_string(), r#"{"program":"/a/"}"#);
    }
}
