//! Structural rules, checked on every `cargo test`.
//!
//! Each rule keeps one design decision from quietly growing back: one
//! bench stack, `unsafe` in three audited files, one chain walker, one
//! reader of sealed-log bytes, listed handles that only ever reach a
//! hint, one stat list, one wire codec, one reference model, one
//! byte cursor for everything that leaves the enclave, one adversary
//! rig, one refusal type, one durable replace, one op generator, one
//! crash model, one size-class rule, one reader of entry tags, one
//! enclave entry per burst and a set hash stored from the enclave's own
//! copy. The rules walk the source
//! tree with `std::fs` (no `git`, no shell), skipping build output
//! (`target/`) and hidden directories. Each rule is a function that is
//! also run on planted violations, so a rule that stops firing fails too.

use std::path::Path;

/// A file under the repository root: its `/`-separated path and its text
/// (empty when it is not UTF-8).
#[derive(Clone)]
struct File {
    path: String,
    text: String,
}

/// The files a rule reads.
#[derive(Clone)]
struct Tree(Vec<File>);

impl Tree {
    fn load() -> Tree {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        walk(root, root, &mut files);
        Tree(files)
    }

    /// This tree plus one more file (a second entry when `path` exists).
    fn with(&self, path: &str, text: &str) -> Tree {
        let mut tree = self.clone();
        tree.0.push(File { path: path.into(), text: text.into() });
        tree
    }

    /// The files whose path starts with `prefix`.
    fn under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a File> {
        self.0.iter().filter(move |f| f.path.starts_with(prefix))
    }

    /// The files under `crates/<name>/src/`.
    fn crate_sources(&self) -> impl Iterator<Item = &File> {
        self.under("crates/").filter(|f| f.path.split('/').nth(2) == Some("src"))
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<File>) {
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let entry = entry.expect("readable directory entry");
        let (path, name) = (entry.path(), entry.file_name().to_string_lossy().into_owned());
        if entry.file_type().expect("file type").is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk(root, &path, out);
            }
        } else {
            let rel = path.strip_prefix(root).expect("under the root").to_string_lossy();
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            out.push(File { path: rel.replace('\\', "/"), text });
        }
    }
}

/// The lines of `file` before its first `#[cfg(test)]` line, numbered.
fn before_tests(file: &File) -> impl Iterator<Item = (usize, &str)> {
    file.text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).enumerate()
}

/// Every numbered line of `files` that `matches`, as `path:line: text`.
fn hits<'a>(files: impl Iterator<Item = &'a File>, matches: impl Fn(&str) -> bool) -> Vec<String> {
    files
        .flat_map(|f| f.text.lines().enumerate().map(move |(i, l)| (f, i, l)))
        .filter(|(_, _, line)| matches(line))
        .map(|(f, i, line)| format!("{}:{}: {}", f.path, i + 1, line.trim()))
        .collect()
}

fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The byte offsets just past each occurrence of `word` in `line` that
/// starts at a word boundary.
fn word_starts<'a>(line: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    line.match_indices(word)
        .filter(|(at, _)| !line[..*at].ends_with(is_word_char))
        .map(move |(at, _)| at + word.len())
}

/// `word` occurs in `line` as a whole word (`git grep -w`).
fn has_word(line: &str, word: &str) -> bool {
    word_starts(line, word).any(|end| !line[end..].starts_with(is_word_char))
}

// ---------------------------------------------------------------------
// The rules. Each returns what breaks it, empty when the tree is clean.
// ---------------------------------------------------------------------

/// Performance claims go through `BENCHMARK.json` and `benchmark/` only:
/// no per-feature `BENCH_*.json`, no Criterion, no `cargo bench`, and
/// the figure bins print rather than write artefacts.
fn one_bench_stack(tree: &Tree) -> Vec<String> {
    let mut found: Vec<String> = tree
        .0
        .iter()
        .filter(|f| !f.path.contains('/'))
        .filter(|f| f.path.starts_with("BENCH_") && f.path.ends_with(".json"))
        .map(|f| f.path.clone())
        .collect();
    let manifests = || tree.0.iter().filter(|f| f.path.ends_with("Cargo.toml"));
    let locks = tree.0.iter().filter(|f| f.path.ends_with("Cargo.lock"));
    found.extend(hits(manifests().chain(locks), |l| l.contains("criterion")));
    found.extend(hits(manifests(), |l| l.starts_with("[[bench]]")));
    found.extend(hits(tree.under("crates/bench/src"), |l| l.contains("fs::write")));
    found
}

/// `unsafe` is confined to the AES-NI intrinsics, the one prefetch
/// intrinsic and the epoll/eventfd FFI.
fn unsafe_in_three_files(tree: &Tree) -> Vec<String> {
    const AUDITED: [&str; 3] =
        ["crates/crypto/src/aesni.rs", "crates/crypto/src/hint.rs", "crates/net/src/poller.rs"];
    let sources = tree.crate_sources().chain(tree.under("src/"));
    hits(sources.filter(|f| !AUDITED.contains(&f.path.as_str())), |line| {
        word_starts(line, "unsafe").any(|end| {
            let rest = &line[end..];
            let after = rest.trim_start();
            after.starts_with('{')
                || (after.len() < rest.len()
                    && ["fn", "impl", "extern", "trait"].iter().any(|kw| has_word_at(after, kw)))
        })
    })
}

/// `text` starts with `word` followed by a word boundary.
fn has_word_at(text: &str, word: &str) -> bool {
    text.strip_prefix(word).is_some_and(|rest| !rest.starts_with(is_word_char))
}

/// An entry's `next` lives in untrusted memory and is followed in one
/// place, `TableCtx::chain` (table.rs); no shard function outgrows the
/// `Access` context.
fn one_chain_walker(tree: &Tree) -> Vec<String> {
    let mut found = hits(tree.under("crates/core/src/shard"), |l| l.contains("too_many_arguments"));
    found.extend(hits(tree.under("crates/"), |l| has_word(l, "for_each_entry")));
    let core = tree.under("crates/core/src").filter(|f| f.path != "crates/core/src/table.rs");
    found.extend(hits(core, |l| {
        l.find("read_u64_at(").is_some_and(|at| l[at..].contains("OFF_NEXT"))
    }));
    found
}

/// Sealed-log bytes are read one way: `wal::Frames` alone turns a length
/// prefix into a slice and `wal::ChainCursor` alone calls `open_record`;
/// a writer is opened and guarded in one place each; no `wal/` file
/// passes 450 lines before its tests.
fn one_log_reader(tree: &Tree) -> Vec<String> {
    const READERS: [&str; 2] = ["crates/core/src/wal/codec.rs", "crates/core/src/wal/frames.rs"];
    let not_reader = |f: &&File| !READERS.contains(&f.path.as_str());
    let mut found = hits(tree.under("crates/").filter(not_reader), |l| {
        let record_len = ["MAX_RECORD_LEN", "MIN_RECORD_LEN", "MAN_RECORD_LEN", "MIX_RECORD_LEN"];
        record_len.iter().any(|name| l.contains(name)) && !l.contains("pub use codec::")
    });
    for f in tree.crate_sources().filter(not_reader) {
        for (i, line) in before_tests(f).filter(|(_, l)| l.contains("open_record(")) {
            found.push(format!(
                "{}:{}: opens a record outside wal/frames.rs: {line}",
                f.path,
                i + 1
            ));
        }
    }
    for needle in ["= WalInner {", "lost to a crash"] {
        let at = hits(tree.under("crates/"), |l| l.contains(needle));
        if at.len() != 1 {
            found.push(format!("`{needle}` must appear exactly once, found {at:?}"));
        }
    }
    let wal = tree.under("crates/core/src/wal/").filter(|f| f.path.ends_with(".rs"));
    for f in wal.filter(|f| !f.path["crates/core/src/wal/".len()..].contains('/')) {
        let lines = before_tests(f).count();
        if lines > 450 {
            found.push(format!("{}: {lines} lines before its tests", f.path));
        }
    }
    found
}

/// A MAC node's listed entry handles are untrusted and only hinted: the
/// one function that reads them is private to mac_bucket.rs, and every
/// call hands its items to `prefetch` on the same line.
fn listed_handles_only_hint(tree: &Tree) -> Vec<String> {
    const NODE: &str = "crates/core/src/mac_bucket.rs";
    let elsewhere = tree.under("crates/").filter(|f| f.path != NODE);
    let mut found = hits(elsewhere, |l| l.contains("listed_entries"));
    found.extend(hits(tree.under("crates/"), |l| {
        l.match_indices("pub").any(|(at, _)| {
            let mut rest = &l[at + 3..];
            if let Some(scope) = rest.strip_prefix('(') {
                let end = scope.find(|c: char| !c.is_ascii_lowercase()).unwrap_or(scope.len());
                match scope[end..].strip_prefix(')') {
                    Some(after) if end > 0 => rest = after,
                    _ => return false,
                }
            }
            let spaced = |s: &str| s.len() > s.trim_start().len();
            spaced(rest)
                && rest.trim_start().strip_prefix("fn").is_some_and(|after| {
                    spaced(after) && after.trim_start().starts_with("listed_entries")
                })
        })
    }));
    found.extend(hits(tree.under(NODE), |l| {
        l.contains("listed_entries(")
            && !l.contains("fn listed_entries")
            && !l.contains("prefetch(")
    }));
    found
}

/// A stat is declared once, in its table: no hand-bumped layout
/// constant, and a name that is only ever listed appears at most in its
/// table row, its producer and one unit test.
fn one_stat_list(tree: &Tree) -> Vec<String> {
    let tables = ["STATS_WIRE_VERSION", "SIM_FIELDS", "TENANT_STAT_FIELDS"];
    let scanned = tree.under("crates/").chain(tree.under("benchmark/"));
    let mut found = hits(scanned, |l| tables.iter().any(|name| l.contains(name)));
    let listed = [
        "repl_bytes_shipped",
        "repl_acked_generation",
        "scrub_repaired",
        "epc_writebacks",
        "heap_chunks",
    ];
    for name in listed {
        let at = hits(tree.crate_sources(), |l| has_word(l, name));
        if at.len() > 3 {
            found.push(format!("{name} is listed in {} places: {at:?}", at.len()));
        }
    }
    found
}

/// A request's wire form lives in `protocol.rs`: outside tests, no other
/// source names an opcode, key-value or control (the benchmark, a
/// workspace of its own, is not read).
fn opcodes_only_in_protocol(tree: &Tree) -> Vec<String> {
    let sources = tree.crate_sources().chain(tree.under("src/")).chain(tree.under("examples/"));
    let mut found = Vec::new();
    for f in sources.filter(|f| f.path != "crates/net/src/protocol.rs" && f.path.ends_with(".rs")) {
        for (i, line) in before_tests(f).filter(|(_, l)| l.contains("OpCode::")) {
            found.push(format!("{}:{}: {}", f.path, i + 1, line.trim()));
        }
    }
    found
}

/// A refusal has one type, `shieldstore::Refusal`: no `OpError` anywhere
/// in the code, and `NetError` carries refusals as `Refused(Refusal)`
/// instead of declaring a variant per refusal.
fn one_refusal_type(tree: &Tree) -> Vec<String> {
    const REFUSALS: [&str; 6] =
        ["Busy", "Quarantined", "QuotaExceeded", "ReadOnly", "StorageFailed", "Failed"];
    let code =
        ["crates/", "src/", "examples/", "tests/"].into_iter().flat_map(|dir| tree.under(dir));
    let mut found =
        hits(code.filter(|f| f.path != "tests/structure.rs"), |l| has_word(l, "OpError"));
    for f in tree.under("crates/net/src/lib.rs") {
        let body = f.text.lines().skip_while(|l| !l.contains("pub enum NetError"));
        for line in body.take_while(|l| !l.starts_with('}')).map(str::trim) {
            let variant: String = line.chars().take_while(|&c| is_word_char(c)).collect();
            if REFUSALS.contains(&variant.as_str()) {
                found.push(format!("{}: NetError declares a refusal variant: {line}", f.path));
            }
        }
    }
    found
}

/// A key-value reference model is defined once, in
/// `crates/core/src/model.rs`: no harness keeps a private map of what the
/// store should hold. `cache_and_fuzz.rs` models the LRU cache, not the
/// store, and this file names the patterns it looks for.
fn one_reference_model(tree: &Tree) -> Vec<String> {
    const SHADOWS: [&str; 4] = [
        "HashMap<Vec<u8>, Vec<u8>>",
        "BTreeMap<(u32, Vec<u8>)",
        "struct ShadowModel",
        "struct Oracle",
    ];
    const EXEMPT: [&str; 2] = ["crates/core/tests/cache_and_fuzz.rs", "tests/structure.rs"];
    let crate_tests = tree.under("crates/").filter(|f| f.path.split('/').nth(2) == Some("tests"));
    let harnesses =
        tree.under("crates/adversary/src").chain(crate_tests).chain(tree.under("tests/"));
    hits(harnesses.filter(|f| !EXEMPT.contains(&f.path.as_str())), |l| {
        SHADOWS.iter().any(|shadow| l.contains(shadow))
    })
}

/// Bytes that leave the enclave are read through one cursor,
/// `sgx_sim::bytes::Reader`: outside tests, `from_le_bytes` appears only
/// in it, in the fixed layouts that live in memory (entry header, MAC
/// node, heap chunk, enclave memory, the testing hooks), in the wire's
/// incremental frame header and in `protocol::read_frame`'s length prefix.
fn one_byte_cursor(tree: &Tree) -> Vec<String> {
    const EXEMPT: [&str; 7] = [
        "crates/sgx-sim/src/bytes.rs",
        "crates/core/src/entry.rs",
        "crates/core/src/mac_bucket.rs",
        "crates/core/src/alloc.rs",
        "crates/core/src/testing.rs",
        "crates/sgx-sim/src/memory.rs",
        "crates/net/src/frame.rs",
    ];
    let scoped = ["crates/core/src/", "crates/net/src/", "crates/sgx-sim/src/"];
    let sources = tree.0.iter().filter(|f| scoped.iter().any(|dir| f.path.starts_with(dir)));
    let mut found = Vec::new();
    for f in sources.filter(|f| !EXEMPT.contains(&f.path.as_str())) {
        if f.path.ends_with("tests.rs") {
            continue;
        }
        for (i, line) in before_tests(f).filter(|(_, l)| l.contains("from_le_bytes")) {
            let read_frame = f.path == "crates/net/src/protocol.rs" && line.contains("(len_buf)");
            if !read_frame {
                found.push(format!("{}:{}: {}", f.path, i + 1, line.trim()));
            }
        }
    }
    found
}

/// The adversary harness runs every phase in one rig,
/// `crates/adversary/src/rig.rs`, and counts into one `Tally`: no report
/// struct anywhere in the harness, and nothing outside the rig builds an
/// enclave, a table configuration or a scratch directory of its own.
fn one_adversary_rig(tree: &Tree) -> Vec<String> {
    const RIG: &str = "crates/adversary/src/rig.rs";
    let report_struct = |line: &str| {
        word_starts(line, "struct").any(|end| {
            let rest = &line[end..];
            let name: String = rest.trim_start().chars().take_while(|&c| is_word_char(c)).collect();
            rest.starts_with(char::is_whitespace) && name.ends_with("Report")
        })
    };
    let mut found = hits(tree.under("crates/adversary/src/"), report_struct);
    let phases = tree.under("crates/adversary/src/").filter(|f| f.path != RIG);
    found.extend(hits(phases, |l| {
        ["EnclaveBuilder::new", "temp_dir()", "Config::shield_opt"].iter().any(|n| l.contains(n))
    }));
    found
}

/// A file is replaced durably one way, `sgx_sim::storage::replace_durably`:
/// outside it and test code, no source renames a file or syncs a
/// directory by hand.
fn one_durable_replace(tree: &Tree) -> Vec<String> {
    const REPLACE: &str = "crates/sgx-sim/src/storage.rs";
    let sources = tree.crate_sources().chain(tree.under("src/")).chain(tree.under("examples/"));
    let mut found = Vec::new();
    for f in sources.filter(|f| f.path != REPLACE && !f.path.ends_with("tests.rs")) {
        let calls = |l: &&str| l.contains(".rename(") || l.contains(".sync_dir(");
        for (i, line) in before_tests(f).filter(|(_, l)| calls(l)) {
            found.push(format!("{}:{}: {}", f.path, i + 1, line.trim()));
        }
    }
    found
}

/// Operations are generated one way, Table 2's `shield_workload::Generator`:
/// no `YcsbGenerator` and no `ycsb` module anywhere in the code.
fn one_op_generator(tree: &Tree) -> Vec<String> {
    let code: Vec<&File> = ["crates/", "src/", "examples/", "tests/", "benchmark/"]
        .into_iter()
        .flat_map(|dir| tree.under(dir))
        .filter(|f| f.path.ends_with(".rs") && f.path != "tests/structure.rs")
        .collect();
    let mut found: Vec<String> =
        code.iter().filter(|f| f.path.ends_with("/ycsb.rs")).map(|f| f.path.clone()).collect();
    found.extend(hits(code.into_iter(), |l| {
        has_word(l, "YcsbGenerator")
            || l.contains("ycsb::")
            || word_starts(l, "mod").any(|end| has_word_at(l[end..].trim_start(), "ycsb"))
    }));
    found
}

/// A crash is one thing, a `FaultFs` event (`crash`, `crash_at`): no
/// source under `crates/` or `tests/` aborts the process, simulates a
/// crash on the log, or reads a crash harness's environment variable.
fn one_crash_model(tree: &Tree) -> Vec<String> {
    let code = tree.under("crates/").chain(tree.under("tests/"));
    let code = code.filter(|f| f.path.ends_with(".rs") && f.path != "tests/structure.rs");
    hits(code, |l| {
        ["process::abort", "simulate_crash", "SHIELDSTORE_CRASH_"].iter().any(|n| l.contains(n))
    })
}

/// Whether `line` calls `next_power_of_two` on an allocation length: a
/// receiver (what follows the line's last `=`) naming `len`, `class` or a
/// `…_len`.
fn rounds_a_length(line: &str) -> bool {
    line.match_indices(".next_power_of_two").any(|(at, _)| {
        let receiver = line[..at].rsplit('=').next().unwrap_or_default();
        receiver
            .split(|c| !is_word_char(c))
            .any(|word| word == "len" || word == "class" || word.ends_with("_len"))
    })
}

/// Rule 15. Every heap carves its blocks with `sgx_sim::classes`: outside
/// it and test code, no crate source keeps free lists, defines a
/// `size_class` or `class_index`, or rounds an allocation length to a
/// power of two.
fn one_size_class_rule(tree: &Tree) -> Vec<String> {
    const CLASSES: &str = "crates/sgx-sim/src/classes.rs";
    let defines = |l: &str| {
        word_starts(l, "fn").any(|end| {
            let name = l[end..].trim_start();
            has_word_at(name, "size_class") || has_word_at(name, "class_index")
        })
    };
    let mut found = Vec::new();
    for f in tree.crate_sources().filter(|f| f.path != CLASSES && !f.path.ends_with("tests.rs")) {
        let breaks = |l: &&str| has_word(l, "free_lists") || defines(l) || rounds_a_length(l);
        for (i, line) in before_tests(f).filter(|(_, l)| breaks(l)) {
            found.push(format!("{}:{}: {}", f.path, i + 1, line.trim()));
        }
    }
    found
}

/// Whether `line` reads untrusted memory at an entry's `sealed_len()` —
/// where a tag after the ciphertext starts: a `bytes_at(` call whose
/// second argument names it.
fn reads_at_sealed_len(line: &str) -> bool {
    line.match_indices("bytes_at(").any(|(at, call)| {
        line[at + call.len()..].split(',').nth(1).is_some_and(|arg| arg.contains("sealed_len"))
    })
}

/// Rule 16. An entry's
/// tag exists once, and `TableCtx::tags` in table.rs is its one reader:
/// no source names `OFF_MAC` (the header copy that is gone), and outside
/// tests no crate source but table.rs, mac_bucket.rs (the node layout)
/// and the testing hooks (the attacker) calls `try_gather` or reads at an
/// entry's `sealed_len()`.
fn one_tag_reader(tree: &Tree) -> Vec<String> {
    const EXEMPT: [&str; 3] =
        ["crates/core/src/table.rs", "crates/core/src/mac_bucket.rs", "crates/core/src/testing.rs"];
    let code =
        ["crates/", "src/", "tests/", "examples/"].into_iter().flat_map(|dir| tree.under(dir));
    let code = code.filter(|f| f.path.ends_with(".rs") && f.path != "tests/structure.rs");
    let mut found = hits(code, |l| has_word(l, "OFF_MAC"));
    for f in tree.crate_sources().filter(|f| !EXEMPT.contains(&f.path.as_str())) {
        if f.path.ends_with("tests.rs") {
            continue;
        }
        let reads = |l: &str| l.contains("try_gather(") || reads_at_sealed_len(l);
        for (i, line) in before_tests(f).filter(|(_, l)| reads(l)) {
            found.push(format!("{}:{}: {}", f.path, i + 1, line.trim()));
        }
    }
    found
}

/// The bodies of every `fn name` in `file` before its tests, each as its
/// numbered lines: from the signature to the closing brace at the
/// signature's indentation.
fn fn_bodies<'a>(file: &'a File, name: &str) -> Vec<Vec<(usize, &'a str)>> {
    let lines: Vec<(usize, &str)> = before_tests(file).collect();
    let mut bodies = Vec::new();
    let mut at = 0;
    while at < lines.len() {
        let line = lines[at].1;
        if !word_starts(line, "fn").any(|end| has_word_at(line[end..].trim_start(), name)) {
            at += 1;
            continue;
        }
        let close = format!("{}}}", &line[..line.len() - line.trim_start().len()]);
        let end =
            lines[at..].iter().position(|(_, l)| *l == close).map_or(lines.len(), |n| at + n + 1);
        bodies.push(lines[at..end].to_vec());
        at = end;
    }
    bodies
}

/// Rule 17. A loop enters the enclave once per burst, in one place: in
/// `crates/net/src`, outside test code, a crossing (`.hotcall()`,
/// `.ecall()`) is charged only in the engine's `EventLoop::enter`.
fn one_enclave_entry(tree: &Tree) -> Vec<String> {
    const ENGINE: &str = "crates/net/src/engine.rs";
    let charges = |l: &str| l.contains(".hotcall()") || l.contains(".ecall()");
    let mut found = Vec::new();
    for f in tree.under("crates/net/src/").filter(|f| f.path.ends_with(".rs")) {
        let entry: Vec<usize> = if f.path == ENGINE {
            fn_bodies(f, "enter").into_iter().flatten().map(|(i, _)| i).collect()
        } else {
            Vec::new()
        };
        for (i, line) in before_tests(f).filter(|(i, l)| charges(l) && !entry.contains(i)) {
            found.push(format!("{}:{}: {}", f.path, i + 1, line.trim()));
        }
    }
    found
}

/// The names `line` calls: each word directly before a `(` (a macro's
/// `!` or a bare parenthesis names nothing).
fn called_names(line: &str) -> impl Iterator<Item = &str> {
    line.match_indices('(').filter_map(move |(at, _)| {
        let start = line[..at].rfind(|c| !is_word_char(c)).map_or(0, |p| p + 1);
        (start < at).then(|| &line[start..at])
    })
}

/// Rule 18. A write stores its set hash from the enclave's copy of the set
/// (the verified gather, patched where the write wrote a tag), never from
/// a re-read: `update_set_hash` in `crates/core/src/shard` calls only the
/// enclave-side helpers listed here — the copy, the set's bucket range,
/// the CMAC, the enclave's hash array — and the attack hook that exists
/// only in tests. Anything else it called could read untrusted memory.
fn set_hash_from_the_enclave_copy(tree: &Tree) -> Vec<String> {
    const CALLS: [&str; 8] =
        ["in_write_window", "holds", "buckets_of", "set_violation", "set", "set_hash", "Ok", "Err"];
    let mut found = Vec::new();
    let mut defined = false;
    for f in tree.under("crates/core/src/shard/").filter(|f| !f.path.ends_with("tests.rs")) {
        for body in fn_bodies(f, "update_set_hash") {
            defined = true;
            for (i, line) in body.into_iter().skip(1) {
                if ["//", "#["].iter().any(|skip| line.trim_start().starts_with(skip)) {
                    continue;
                }
                for name in called_names(line).filter(|name| !CALLS.contains(name)) {
                    found.push(format!("{}:{}: calls {name}: {}", f.path, i + 1, line.trim()));
                }
            }
        }
    }
    if !defined {
        found.push("no `fn update_set_hash` under crates/core/src/shard".into());
    }
    found
}

// ---------------------------------------------------------------------
// The checks: clean today, and firing on every planted violation.
// ---------------------------------------------------------------------

fn check(rule: fn(&Tree) -> Vec<String>, message: &str, plants: &[(&str, &str)]) {
    let tree = Tree::load();
    let found = rule(&tree);
    assert!(found.is_empty(), "{message}:\n  {}", found.join("\n  "));
    for (path, text) in plants {
        assert!(!rule(&tree.with(path, text)).is_empty(), "rule missed a planted {path}: {text:?}");
    }
}

#[test]
fn one_bench_stack_holds() {
    check(
        one_bench_stack,
        "a second bench stack is growing back (see README, Reproducing the paper's evaluation)",
        &[
            ("BENCH_sweep.json", "{}"),
            ("vendor/criterion/Cargo.toml", "[package]\nname = \"criterion\"\n"),
            ("crates/bench/Cargo.toml", "[[bench]]\nname = \"micro\"\n"),
            ("crates/bench/src/bin/sweep.rs", "fn main() { std::fs::write(\"out\", b\"\").ok(); }"),
        ],
    );
}

#[test]
fn unsafe_stays_in_three_files() {
    check(
        unsafe_in_three_files,
        "unsafe code outside crates/crypto/src/{aesni,hint}.rs and crates/net/src/poller.rs",
        &[
            ("crates/core/src/table.rs", "let x = unsafe { *ptr };"),
            ("src/lib.rs", "pub unsafe fn raw() {}"),
            ("crates/net/src/engine.rs", "unsafe impl Send for Loop {}"),
        ],
    );
}

#[test]
fn one_chain_walker_holds() {
    check(
        one_chain_walker,
        "a second chain walk or a too-many-arguments allow is back (see DESIGN.md, Inside a shard)",
        &[
            ("crates/core/src/shard/body.rs", "#[allow(clippy::too_many_arguments)]"),
            ("crates/core/src/store.rs", "fn for_each_entry(&self) {}"),
            ("crates/core/src/shard/maint.rs", "let next = heap.read_u64_at(handle, OFF_NEXT);"),
        ],
    );
}

#[test]
fn one_log_reader_holds() {
    let long_file = "\n".repeat(451);
    check(
        one_log_reader,
        "a second reader of sealed-log bytes, or a second way to open or guard the writer, is back (see DESIGN.md, Durability)",
        &[
            ("crates/core/src/snapshot.rs", "if len > MAX_RECORD_LEN { return None; }"),
            ("crates/core/src/repl.rs", "let op = codec.open_record(&bytes);"),
            ("crates/core/src/wal/mod.rs", "let inner = WalInner {"),
            ("crates/core/src/wal/reader.rs", "Err(\"log lost to a crash\")"),
            ("crates/core/src/wal/big.rs", &long_file),
        ],
    );
}

#[test]
fn listed_handles_only_reach_a_hint() {
    check(
        listed_handles_only_hint,
        "a listed handle is used for something other than a hint (see DESIGN.md, MAC bucketing)",
        &[
            ("crates/core/src/table.rs", "for h in node.listed_entries(heap) {}"),
            ("crates/core/src/mac_bucket.rs", "pub(crate) fn listed_entries(&self) {}"),
            ("crates/core/src/mac_bucket.rs", "let first = node.listed_entries(heap).next();"),
        ],
    );
}

#[test]
fn one_stat_list_holds() {
    check(
        one_stat_list,
        "a stat list is written twice; declare each stat once in its table",
        &[
            ("crates/core/src/stats.rs", "pub const STATS_WIRE_VERSION: u8 = 9;"),
            (
                "crates/core/src/extra.rs",
                "scrub_repaired\nscrub_repaired\nscrub_repaired\nscrub_repaired",
            ),
        ],
    );
}

#[test]
fn opcodes_are_named_only_in_protocol() {
    check(
        opcodes_only_in_protocol,
        "an opcode is named outside crates/net/src/protocol.rs; build requests with Request::from_op or Request::from_control",
        &[
            ("crates/net/src/client.rs", "let request = Request { op: OpCode::Get, key, value };"),
            ("examples/raw_wire.rs", "let op = OpCode::ScanPrefix;"),
            ("crates/net/src/server.rs", "OpCode::Stats => match store.stats_snapshot() {"),
            ("crates/net/src/engine.rs", "matches!(request.op, OpCode::ReplAck | OpCode::Promote)"),
        ],
    );
    // Test modules stay free to name theirs.
    let allowed = Tree::load().with(
        "crates/net/src/engine.rs",
        "#[cfg(test)]\nmod tests { const OP: OpCode = OpCode::Promote; }",
    );
    assert!(opcodes_only_in_protocol(&allowed).is_empty());
}

#[test]
fn one_refusal_type_holds() {
    check(
        one_refusal_type,
        "a second refusal type is growing back; refuse with shieldstore::Refusal (see DESIGN.md, Refusals)",
        &[
            ("crates/baseline/src/lib.rs", "pub enum OpError { Failed }"),
            ("tests/end_to_end.rs", "use shield_baseline::{KvBackend, OpError};"),
            (
                "crates/net/src/lib.rs",
                "pub enum NetError {\n    Io(std::io::Error),\n    Busy,\n}",
            ),
            (
                "crates/net/src/lib.rs",
                "pub enum NetError {\n    /// Shed.\n    QuotaExceeded { tenant: u32 },\n}",
            ),
        ],
    );
}

#[test]
fn one_reference_model_holds() {
    check(
        one_reference_model,
        "a second key-value reference model is growing; check against shieldstore::model::Model",
        &[
            (
                "crates/adversary/src/walphase.rs",
                "let mut shadow: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();",
            ),
            (
                "crates/net/tests/op_conformance.rs",
                "struct Oracle { map: BTreeMap<(u32, Vec<u8>), (Vec<u8>, u64)> }",
            ),
            ("tests/end_to_end.rs", "pub struct ShadowModel {"),
        ],
    );
}

#[test]
fn one_byte_cursor_holds() {
    check(
        one_byte_cursor,
        "bytes that leave the enclave are parsed by hand; read them through sgx_sim::bytes::Reader (see DESIGN.md, Bytes outside the enclave)",
        &[
            ("crates/core/src/persist.rs", "let n = u32::from_le_bytes(b[..4].try_into().unwrap());"),
            ("crates/net/src/session.rs", "let tenant = u32::from_le_bytes(bytes[40..44].try_into()?);"),
            ("crates/net/src/protocol.rs", "let seq = u64::from_le_bytes(body[1..9].try_into()?);"),
        ],
    );
    // Test code, and a test file of its own, stay free to.
    let allowed = Tree::load()
        .with(
            "crates/core/src/repl.rs",
            "#[cfg(test)]\nmod tests { fn f() { u64::from_le_bytes(x); } }",
        )
        .with("crates/core/src/shard/tamper_tests.rs", "let cap = u32::from_le_bytes(raw);");
    assert!(one_byte_cursor(&allowed).is_empty());
}

#[test]
fn one_adversary_rig_holds() {
    check(
        one_adversary_rig,
        "an adversary phase keeps its own report struct or scaffolding; count into the rig's Tally and build through crates/adversary/src/rig.rs",
        &[
            ("crates/adversary/src/engine.rs", "pub struct StoreReport {"),
            (
                "crates/adversary/src/walphase.rs",
                "let enclave = EnclaveBuilder::new(\"adversary-wal\").seed(seed).build();",
            ),
            (
                "crates/adversary/src/crashphase.rs",
                "let dir = std::env::temp_dir().join(\"ss-crash\");",
            ),
            ("crates/adversary/src/wire.rs", "let config = Config::shield_opt().buckets(64);"),
        ],
    );
}

#[test]
fn one_durable_replace_holds() {
    check(
        one_durable_replace,
        "a file is renamed or a directory synced by hand; replace it through sgx_sim::storage::replace_durably (see DESIGN.md, Durability)",
        &[
            ("crates/core/src/persist.rs", "    fs.rename(&tmp, path)?;"),
            ("crates/core/src/wal/pin.rs", "    fail_closed(poison, fs.sync_dir(dir))"),
            ("crates/sgx-sim/src/counter.rs", "        self.fs.rename(&tmp, &self.path)?;"),
        ],
    );
    // Test code stays free to.
    let allowed = Tree::load().with(
        "crates/core/src/persist.rs",
        "#[cfg(test)]\nmod tests { fn f() { RealFs.sync_dir(&dir).unwrap(); } }",
    );
    assert!(one_durable_replace(&allowed).is_empty());
}

#[test]
fn one_op_generator_holds() {
    check(
        one_op_generator,
        "a second op generator is growing back; drive Table 2's shield_workload::Generator (see DESIGN.md, Multi-tenancy)",
        &[
            ("crates/workload/src/ycsb.rs", "//! The six core YCSB workloads."),
            ("crates/workload/src/lib.rs", "pub mod ycsb;"),
            ("crates/net/tests/fairness.rs", "use shield_workload::ycsb::MultiTenantMix;"),
            ("tests/end_to_end.rs", "let mut generator = YcsbGenerator::new(w, 100, 7);"),
        ],
    );
}

#[test]
fn one_crash_model_holds() {
    check(
        one_crash_model,
        "a second crash model is growing back; crash through FaultFs::crash or FaultFs::crash_at (see DESIGN.md, Durability)",
        &[
            ("crates/core/src/wal/writer.rs", "            std::process::abort(); // after the pin"),
            ("crates/net/tests/op_conformance.rs", "store.wal_handle().unwrap().simulate_crash();"),
            ("crates/adversary/src/crashphase.rs", "const FUSE_ENV: &str = \"SHIELDSTORE_CRASH_FUSE\";"),
        ],
    );
}

#[test]
fn one_size_class_rule_holds() {
    check(
        one_size_class_rule,
        "a second size-class allocator is growing back; carve blocks with sgx_sim::classes (see DESIGN.md, Size classes that fit)",
        &[
            ("crates/baseline/src/eleos.rs", "    free_lists: Vec<Vec<u64>>,"),
            ("crates/sgx-sim/src/memory.rs", "fn size_class(len: usize) -> usize {"),
            ("crates/core/src/alloc.rs", "pub(crate) fn class_index(class: usize) -> usize {"),
            ("crates/baseline/src/eleos.rs", "        let class = len.max(16).next_power_of_two();"),
            ("crates/core/src/cache.rs", "let block = (HEADER + value_len).next_power_of_two();"),
        ],
    );
    // Test code stays free to, and so does rounding a count.
    let allowed = Tree::load()
        .with("crates/sgx-sim/src/memory.rs", "#[cfg(test)]\nmod tests { fn size_class() {} }")
        .with("crates/net/src/engine.rs", "    let route_len = n.next_power_of_two();")
        .with(
            "crates/bench/src/bin/fig03.rs",
            "let buckets = (num_keys as usize).next_power_of_two();",
        );
    assert!(one_size_class_rule(&allowed).is_empty());
}

#[test]
fn one_tag_reader_holds() {
    check(
        one_tag_reader,
        "an entry's tag is read, or kept, somewhere other than TableCtx::tags (see DESIGN.md, MAC bucketing)",
        &[
            ("crates/core/src/entry.rs", "pub const OFF_MAC: usize = 45;"),
            ("crates/core/tests/tenant_isolation.rs", "forged[entry::OFF_MAC..][..16].copy_from_slice(&tag);"),
            ("crates/core/src/shard/verify.rs", "mac_bucket::try_gather(&table.heap, head, side, lim)"),
            ("crates/core/src/persist.rs", "let tag = heap.try_bytes_at(h, header.sealed_len(), 16)?;"),
        ],
    );
    // Test code stays free to, and so does reading an entry up to where
    // its tag starts.
    let allowed = Tree::load()
        .with(
            "crates/core/src/shard/verify.rs",
            "#[cfg(test)]\nmod tests { fn f() { mac_bucket::try_gather(&h, at, &mut out, lim); } }",
        )
        .with(
            "crates/core/src/persist.rs",
            "let bytes = heap.try_bytes_at(h, 0, header.sealed_len());",
        );
    assert!(one_tag_reader(&allowed).is_empty());
}

#[test]
fn one_enclave_entry_holds() {
    check(
        one_enclave_entry,
        "an enclave crossing is charged outside EventLoop::enter; a burst enters once (see DESIGN.md, The network engine)",
        &[
            (
                "crates/net/src/engine.rs",
                "    fn execute_request(&mut self) -> Vec<u8> {\n        enclave.hotcall();\n    }",
            ),
            ("crates/net/src/server.rs", "            enclave.ecall();"),
            (
                "crates/net/src/engine.rs",
                "    fn enter(&mut self) {\n        enclave.hotcall();\n    }\n    fn again(&self) {\n        enclave.ecall();\n    }",
            ),
        ],
    );
    // Test code stays free to.
    let allowed = Tree::load().with(
        "crates/net/src/server.rs",
        "#[cfg(test)]\nmod tests { fn f() { enclave.ecall(); } }",
    );
    assert!(one_enclave_entry(&allowed).is_empty());
}

#[test]
fn set_hash_is_stored_from_the_enclave_copy() {
    check(
        set_hash_from_the_enclave_copy,
        "update_set_hash calls something that may read untrusted memory; hash the patched gather (see DESIGN.md, Inside a shard)",
        &[
            (
                "crates/core/src/shard/verify.rs",
                "    pub(super) fn update_set_hash(&mut self, table: &mut TableCtx, set: usize) -> Result<()> {\n        self.gather_set(table, set).ok_or_else(|| set_violation(table, set))?;\n        table.macs.set(set, &set_hash(&self.keys, &self.scratch.set));\n        Ok(())\n    }",
            ),
            (
                "crates/core/src/shard/verify.rs",
                "    fn update_set_hash(&mut self, table: &mut TableCtx, set: usize) {\n        for b in table.sets.buckets_of(set) {\n            table.tags(b, &mut self.scratch.set);\n        }\n    }",
            ),
            (
                "crates/core/src/shard/verify.rs",
                "    fn update_set_hash(&mut self, table: &TableCtx, set: usize) {\n        self.load_tags(table, set)?;\n    }",
            ),
        ],
    );
    // A test file stays free to, and so do comments and attributes.
    let allowed = Tree::load()
        .with(
            "crates/core/src/shard/tamper_tests.rs",
            "fn update_set_hash() {\n    table.tags(0, &mut out);\n}",
        )
        .with(
            "crates/core/src/shard/verify.rs",
            "fn update_set_hash() {\n    // never gather_set(table, set) here\n}",
        );
    assert!(set_hash_from_the_enclave_copy(&allowed).is_empty());
}
