//! The `eleph` CLI: every paper experiment plus the streaming pipeline
//! behind one binary. `eleph help` lists the subcommands.

fn main() -> std::process::ExitCode {
    eleph_report::cli::eleph_main()
}
