//! `caplint` — mechanical enforcement of the workspace's determinism,
//! atomic-IO, and threading contracts (rules R001–R012).
//!
//! ```text
//! caplint [--root DIR] [--allow FILE] [--json] [--list-rules]
//! caplint graph [--root DIR] [--json]
//! ```
//!
//! Exit codes: `0` clean, `1` non-baselined violations, `2` stale
//! baseline entries (violation fixed but entry remains), `3` usage or
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    allow: Option<PathBuf>,
    json: bool,
    list_rules: bool,
    graph: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        allow: None,
        json: false,
        list_rules: false,
        graph: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("graph") {
        opts.graph = true;
        args.next();
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--allow" if !opts.graph => {
                opts.allow = Some(PathBuf::from(args.next().ok_or("--allow needs a file")?));
            }
            "--json" => opts.json = true,
            "--list-rules" if !opts.graph => opts.list_rules = true,
            "--help" | "-h" => {
                println!(
                    "caplint [--root DIR] [--allow FILE] [--json] [--list-rules]\n\
                     caplint graph [--root DIR] [--json]\n\n\
                     Checks every Rust source and Cargo.toml under DIR (default .)\n\
                     against rules R001-R012; see --list-rules. R008-R010 run on an\n\
                     approximate workspace call graph built from an item-level parse\n\
                     of every non-test source. The baseline defaults to\n\
                     DIR/caplint.allow when present.\n\n\
                     caplint graph prints that call graph (deterministic text, or\n\
                     JSON with --json) and exits 0.\n\n\
                     Exit codes: 0 clean, 1 violations, 2 stale baseline, 3 usage/IO error."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

fn run() -> Result<i32, String> {
    let opts = parse_args()?;
    if opts.graph {
        let g = cap_lint::load_graph(&opts.root)?;
        let out = if opts.json {
            cap_lint::graph::render_json(&g)
        } else {
            cap_lint::graph::render_text(&g)
        };
        // The graph runs to thousands of lines and is routinely piped
        // into `head`/`grep -m`; a closed pipe is success, not a panic.
        use std::io::Write as _;
        let _ = std::io::stdout().write_all(out.as_bytes());
        return Ok(0);
    }
    if opts.list_rules {
        print!("{}", cap_lint::render_rule_list());
        return Ok(0);
    }
    let allow_path = opts.allow.clone().or_else(|| {
        let default = opts.root.join("caplint.allow");
        default.exists().then_some(default)
    });
    let allow = match &allow_path {
        Some(p) => {
            let src =
                std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
            cap_lint::allow::parse(&src)?
        }
        None => Vec::new(),
    };
    let outcome = cap_lint::check_workspace(&opts.root, &allow)?;
    if opts.json {
        println!("{}", cap_lint::render_json(&outcome));
    } else {
        print!("{}", cap_lint::render_human(&outcome));
    }
    Ok(outcome.exit_code())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(3)),
        Err(msg) => {
            eprintln!("caplint: {msg}");
            ExitCode::from(3)
        }
    }
}
