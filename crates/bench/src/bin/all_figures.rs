//! Regenerates the experiments of the paper's evaluation: all of them when
//! run without arguments, or only the ones named as arguments, in the
//! order given (`all_figures fig8 va_sweep`). `IQ_QUICK=1` for a fast
//! smoke run.
use iq_bench::{figures, Config, Table};

/// A figure runner.
type Figure = fn(&Config) -> Table;

const FIGURES: [(&str, Figure); 8] = [
    ("fig1", figures::fig1_fetch),
    ("va_sweep", figures::va_sweep),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut selected = Vec::new();
    for name in &names {
        match FIGURES.iter().find(|(f, _)| f == name) {
            Some(&(_, run)) => selected.push(run),
            None => {
                let valid: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
                eprintln!(
                    "error: unknown figure `{name}` (valid: {})",
                    valid.join(", ")
                );
                std::process::exit(1);
            }
        }
    }
    if names.is_empty() {
        selected = FIGURES.iter().map(|&(_, run)| run).collect();
    }
    let cfg = Config::from_env();
    // Tables are separated by a blank line; the full run also ends with one.
    for (i, run) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", run(&cfg).render());
    }
    if names.is_empty() {
        println!();
    }
}
