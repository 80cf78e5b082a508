//! The `ktg` binary: a thin shim over [`ktg_cli::run`].
//!
//! Exit codes: `0` — success, every answer exact; `3` — the command ran
//! but at least one answer was degraded (deadline/budget best-so-far)
//! or failed; `4` — `ktg serve --connect` saw at least one query shed
//! unsolved by a draining server (shedding wins over degradation so
//! load problems are never misread as answer-quality problems); `2` —
//! usage or runtime error. `--help` (or `-h`) anywhere on the command
//! line prints the usage on stdout and exits 0.

/// The usage text: on stdout for `--help`/`-h`, on stderr after an error.
const USAGE: &str = "\
usage: ktg <generate|stats|index|query|dktg|batch|serve> [--flag value]...
  generate --profile NAME --out DIR [--scale N] [--seed N]
  generate --sbm-n N --out DIR [--sbm-blocks B] [--sbm-pin P] [--sbm-pout P]
  stats    --edges FILE [--keywords FILE]
  index    --edges FILE [--keywords FILE] --bundle FILE [--threads N]
  query    --edges FILE [--keywords FILE] (--terms a,b,c | --random-terms N)
           [-p N] [-k N] [-n N] [--algo qkc|vkc|vkc-deg]
           [--oracle bfs|nl|nlrnl] [--threads N] [--bitmap-threshold N]
           [--authors 1,2] [--explain true] [--deadline-ms N] [--node-budget N]
  dktg     (query flags) [--gamma F]
  batch    --workload FILE --edges FILE [--keywords FILE] [--threads N]
           [--cache-entries N] [--no-cache] [--deadline-ms N]
           [--node-budget N]
  serve    --edges FILE [--keywords FILE] [--bind ADDR] [--workers N]
           [--conn-deadline-ms N] [--wal FILE [--wal-sync always|batch]
           [--checkpoint-every N, with --bundle]] (plus the batch cache/budget
           flags; --threads is accepted and ignored: lines run on the --workers pool)
  serve    --connect ADDR [--workload FILE] [--stats] [--shutdown]
           [--retry N] [--retry-base-ms MS] (client flags only)
stats/query/dktg/batch/serve take --bundle FILE in place of --edges/--keywords;
a flag the command does not read is an error.
env: KTG_THREADS=N  KTG_VERIFY=1  KTG_FAULTS=<sites>:<rate>:<seed>
exit codes: 0 ok; 3 degraded/partial answers; 4 overloaded/shed; 2 error";

fn main() {
    // Under fault injection every injected panic is caught and retried
    // by design; without this filter each one would still dump a
    // backtrace to stderr through the default hook and drown real
    // output. Genuine panics keep the full default report.
    if std::env::var_os("KTG_FAULTS").is_some() {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ktg_common::InjectedFault>().is_none() {
                default_hook(info);
            }
        }));
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{USAGE}");
        return;
    }
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    match ktg_cli::run(&argv, &mut lock) {
        Ok(ktg_cli::RunStatus::Complete) => {}
        Ok(ktg_cli::RunStatus::Degraded) => std::process::exit(3),
        Ok(ktg_cli::RunStatus::Overloaded) => std::process::exit(4),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
