use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::bench::{self, Args};
use perfbench::gen::Workload;
use perfbench::metrics::{self, END_TO_END, PER_LAYER};
use serde::json::Json;

const USAGE: &str =
    "usage: perfbench --workload stencil|irregular|scale|serve --seed N --seconds N --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("want an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or(bad("want 1 to 600"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compare the run's record with the one an earlier run of the same
/// workload and seed left, report each difference, and store the new
/// record. Returns the number of differing entries.
fn compare_record(args: &Args, record: &BTreeMap<&'static str, f64>) -> Result<usize, String> {
    let path = out_dir().join(format!("virt-{}-{}.json", args.workload.name(), args.seed));
    let doc = Json::Obj(
        record
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect(),
    );
    let mut diffs = 0;
    if let Ok(old) = std::fs::read_to_string(&path) {
        let old = Json::parse(&old).map_err(|e| format!("{}: {e}", path.display()))?;
        for (k, v) in record {
            let was = old.get(k).and_then(Json::as_f64);
            if was.map(f64::to_bits) != Some(v.to_bits()) {
                eprintln!("virt-record: {k} was {was:?}, now {v}");
                diffs += 1;
            }
        }
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, doc.render() + "\n").map_err(|e| e.to_string())?;
    println!("# virt-record {} diffs={diffs}", doc.render());
    Ok(diffs)
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = bench::run(&args, epoch).and_then(|mut rep| {
        for line in &rep.info {
            println!("{line}");
        }
        let diffs = compare_record(&args, &rep.record)?;
        let names: &[(&str, &str)] = if args.trace {
            rep.values.insert("virt.record_diffs", diffs as f64);
            let doc = rep.trace.take().expect("traced runs carry a trace");
            let path = out_dir().join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
            std::fs::write(&path, doc.render() + "\n").map_err(|e| e.to_string())?;
            println!("# trace written to {}", path.display());
            &PER_LAYER
        } else {
            &END_TO_END
        };
        Ok(metrics::result_line(
            rep.tally.attempted,
            rep.tally.failed,
            names,
            &rep.values,
        ))
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
