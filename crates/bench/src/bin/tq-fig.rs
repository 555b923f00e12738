//! Regenerates one of the paper's tables or figures:
//! `tq-fig <figure> [flags]`, dispatched on the
//! [`tq_bench::figures::FIGURES`] registry. `tq-fig --help` lists the
//! figures; `tq-fig <figure> --help` lists a figure's flags.

use tq_bench::{figures, or_exit};

fn main() {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let fig = words.first().and_then(|name| figures::find(name));
    if words.iter().any(|w| w == "--help" || w == "-h") {
        print!("{}", fig.map_or_else(figures::help, |f| f.help()));
        return;
    }
    let Some(fig) = fig else {
        if let Some(name) = words.first() {
            eprintln!("unknown figure {name:?}\n");
        }
        eprint!("{}", figures::help());
        std::process::exit(2);
    };
    let (scale, jobs) = tq_bench::env_config_or_exit();
    print!(
        "{}",
        (fig.run)(&or_exit(fig.parse(&words[1..], scale, jobs)))
    );
}
