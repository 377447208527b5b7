//! Reproduction harness for every table and figure in the NACU paper.
//!
//! Each experiment lives in its own module as a pure function returning
//! structured rows plus a `print_*` helper that renders the same series
//! the paper plots; the `src/bin/*` binaries are thin wrappers, and
//! `repro_all` chains everything for the EXPERIMENTS.md record.
//!
//! | module | regenerates |
//! |---|---|
//! | [`fig1`] | Fig. 1 — σ/tanh curves and gradients |
//! | [`formats`] | §III — Eq. 7 format-selection table |
//! | [`fig4`] | Fig. 4a/4b — entries vs precision, error vs entries |
//! | [`fig5`] | Fig. 5 — area breakdown, power, latency |
//! | [`fig6`] | Fig. 6a–e — error comparison vs related work |
//! | [`table1`] | Table I — implementation summary |
//! | [`rmse`] | §VII.A/B — RMSE and correlation numbers |
//! | [`ablation`] | DESIGN.md ablations: fit method, LUT size, polynomial order |
//! | [`width_sweep`] | extension: workload-level accuracy vs NACU word width |
//! | [`scaling`] | §VII.C — technology-scaled area/delay comparison |
//! | [`engine_bench`] | extension: serving throughput vs engine worker count |
//! | [`net_bench`] | extension: loopback TCP serving throughput and tail latency |
//! | [`fault_campaign`] | extension: fault-injection detection-coverage sweep |
//! | [`replay_bench`] | extension: record/replay trace harness and golden-trace gate |

pub mod ablation;
pub mod accuracy;
pub mod engine_bench;
pub mod fault_campaign;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod formats;
pub mod nacu_metrics;
pub mod net_bench;
pub mod replay_bench;
pub mod rmse;
pub mod scaling;
pub mod table1;
pub mod width_sweep;

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One blocking `GET path` against an HTTP/1.1 server that closes each
/// connection after its response, such as the `nacu-obs` scrape server.
/// Returns the status line and the body.
///
/// # Errors
///
/// Any transport failure, or a response without a blank line ending
/// its head (`InvalidData`).
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: nacu\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without a head"))?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

/// Renders a float in compact scientific notation for table cells.
#[must_use]
pub fn sci(v: f64) -> String {
    format!("{v:.3e}")
}

/// Renders an optional count cell.
#[must_use]
pub fn count_cell(v: Option<usize>) -> String {
    v.map_or_else(|| "-".to_string(), |n| n.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(sci(0.000207), "2.070e-4");
        assert_eq!(count_cell(Some(53)), "53");
        assert_eq!(count_cell(None), "-");
    }
}
