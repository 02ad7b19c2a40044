//! Worker child processes for the distributed workload: the benchmark
//! executable re-run with `--worker <addr>`, serving through the public
//! `fineq::lm::run_worker` entry on a Unix socket inside the working
//! directory.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a worker may take to exit after `SHUTDOWN`.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// The worker side: serve `addr` until `SHUTDOWN`, and exit as soon as
/// the parent goes away (its end of our stdin closes), so no worker can
/// outlive the benchmark.
pub fn worker_main(addr: &str) -> Result<(), String> {
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    fineq::lm::run_worker(addr).map_err(|e| format!("worker {addr}: {e}"))
}

struct Proc {
    child: Child,
    /// Held open for the worker's life: closing it tells the worker to exit.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

/// Running workers, reaped on every exit path: [`Workers::finish`] on
/// success, `Drop` (kill and wait) on errors and panics.
pub struct Workers {
    procs: Vec<Proc>,
}

impl Workers {
    /// Starts `n` workers on sockets under `dir` (a relative path keeps
    /// socket paths short) and waits until each announces its address.
    pub fn spawn(n: usize, dir: &str) -> Result<(Workers, Vec<String>), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
        let mut workers = Workers { procs: Vec::new() };
        let mut addrs = Vec::new();
        for i in 0..n {
            let socket = PathBuf::from(format!("{dir}/w{}-{i}.sock", std::process::id()));
            let addr = format!("unix:{}", socket.display());
            let mut child = Command::new(&exe)
                .args(["--worker", &addr])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn worker {i}: {e}"))?;
            let stdin = child.stdin.take();
            let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            workers.procs.push(Proc { child, stdin, stdout, socket });
            let proc = workers.procs.last_mut().expect("just pushed");
            let mut line = String::new();
            proc.stdout
                .read_line(&mut line)
                .map_err(|e| format!("worker {i} announcement: {e}"))?;
            if !line.starts_with("fineq-worker listening on") {
                return Err(format!("worker {i} did not start: {line:?}"));
            }
            addrs.push(addr);
        }
        Ok((workers, addrs))
    }

    /// Waits for every worker to exit after the coordinator sent
    /// `SHUTDOWN`. A worker still running after the grace period is
    /// killed and reported: a run that would leave one behind fails.
    pub fn finish(mut self) -> Result<(), String> {
        let deadline = Instant::now() + EXIT_GRACE;
        let mut stuck = Vec::new();
        for (i, p) in self.procs.iter_mut().enumerate() {
            loop {
                match p.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        stuck.push(i);
                        break;
                    }
                }
            }
        }
        self.reap();
        if stuck.is_empty() {
            Ok(())
        } else {
            Err(format!("workers {stuck:?} were still running after SHUTDOWN"))
        }
    }

    /// Kills whatever still runs, waits for every child and removes the
    /// socket files.
    fn reap(&mut self) {
        for mut p in self.procs.drain(..) {
            drop(p.stdin.take());
            if !matches!(p.child.try_wait(), Ok(Some(_))) {
                let _ = p.child.kill();
            }
            let _ = p.child.wait();
            let _ = std::fs::remove_file(&p.socket);
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.reap();
    }
}
