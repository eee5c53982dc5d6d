//! A closed-loop client of `bfgts_serve --stdin --audit`: one document
//! in flight at a time, the next written only after the previous
//! summary row arrived.

use std::io::{BufRead as _, BufReader, Write as _};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one document may take before the client gives up.
const DOC_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server process.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    rows: Receiver<String>,
    status: Receiver<String>,
    readers: Vec<JoinHandle<()>>,
    sent: usize,
}

impl Server {
    /// Starts `bin --stdin --audit`.
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--stdin", "--audit"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let stderr = child.stderr.take().expect("stderr is piped");
        let (row_tx, rows) = channel();
        let (status_tx, status) = channel();
        let readers = vec![
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if line.contains("\"kind\":\"summary\"") && row_tx.send(line).is_err() {
                        break;
                    }
                }
            }),
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    if status_tx.send(line).is_err() {
                        break;
                    }
                }
            }),
        ];
        Ok(Self {
            child,
            stdin,
            rows,
            status,
            readers,
            sent: 0,
        })
    }

    /// Serves one single-scenario document and returns its summary row
    /// and the host seconds from writing the document to holding both
    /// the summary row and the server's status line.
    pub fn serve(&mut self, doc: &str) -> Result<(String, f64), String> {
        self.sent += 1;
        let ok_prefix = format!("serve: stdin:{}:", self.sent);
        let start = Instant::now();
        let stdin = self.stdin.as_mut().ok_or("server input is closed")?;
        writeln!(stdin, "{doc}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot write to the server: {e}"))?;
        let mut notes = Vec::new();
        loop {
            let line = recv(&self.status)?;
            if line.starts_with(&ok_prefix) {
                break;
            }
            if line.starts_with("error:") {
                notes.push(line);
                return Err(notes.join("; "));
            }
            notes.push(line);
        }
        let row = recv(&self.rows)?;
        Ok((row, start.elapsed().as_secs_f64()))
    }

    /// Peak resident set of the server process in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        crate::host::peak_rss_mib(&self.child.id().to_string())
    }

    /// Closes the server's input and waits for it and its readers to end.
    /// Fails if the server exits unsuccessfully.
    pub fn close(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for the server: {e}"))?;
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached without `close` (an error path): never leave the
        // process running.
        drop(self.stdin.take());
        if self.readers.is_empty() {
            return;
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

fn recv(rx: &Receiver<String>) -> Result<String, String> {
    rx.recv_timeout(DOC_TIMEOUT).map_err(|e| match e {
        RecvTimeoutError::Timeout => "the server did not answer in time".to_string(),
        RecvTimeoutError::Disconnected => "the server closed its output".to_string(),
    })
}
