//! Coefficient-ROM fault-sensitivity sweep: σ max error per flipped bit.
//! Run with `--release`.

use nacu::NacuConfig;
use nacu_bench::fault_campaign;
use nacu_faults::InjectionSite;

fn main() {
    let config = NacuConfig::paper_16bit();
    println!("# ROM fault sensitivity (entry 2 of the paper-16bit unit)");
    println!("target\tbit\tmax_error\tdegradation");
    let rows = fault_campaign::bit_sensitivity(config, 2).expect("paper config injects");
    for r in rows {
        let target = match r.site {
            InjectionSite::LutSlope => "Slope",
            _ => "Bias",
        };
        println!(
            "{target}\t{}\t{}\t{:.1}x",
            r.bit,
            nacu_bench::sci(r.max_error),
            r.degradation
        );
    }
    println!();
    println!("# LSB faults vanish under the output rounding; integer-field faults");
    println!("# are catastrophic — the argument for parity on the high ROM bits.");
}
