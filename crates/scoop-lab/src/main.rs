//! The `scoop-lab` binary: see [`scoop_lab::cli`] for the commands.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = scoop_lab::cli::run_cli(&args, &mut std::io::stdout().lock());
    std::process::exit(code);
}
