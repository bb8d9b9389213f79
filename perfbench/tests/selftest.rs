//! Self-tests of the benchmark: the printed metric set matches
//! `BENCHMARK.json`, the traced trial stages cover the trial wall, and the
//! seed changes the inputs but not the metric set.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! Every run here uses `--smoke` (a few trials per workload).

use std::collections::BTreeMap;
use std::process::Command;

/// A minimal JSON value: enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            _ => panic!("not a number: {self:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            _ => panic!("not an object: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }
    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    let c = self.s[self.i];
                    self.i += 1;
                    if c == b'}' {
                        return Json::Obj(m);
                    }
                    assert_eq!(c, b',');
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    let c = self.s[self.i];
                    self.i += 1;
                    if c == b']' {
                        return Json::Arr(a);
                    }
                    assert_eq!(c, b',');
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing input");
    v
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

/// Runs the benchmark binary in smoke mode; returns stdout lines and the
/// parsed result object.
fn run(workload: &str, seed: u64, trace: bool) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = parse(lines.last().expect("a result line"));
    (lines, result)
}

/// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn printed(result: &Json) -> Vec<(String, String)> {
    result
        .get("metrics")
        .obj()
        .iter()
        .map(|(k, v)| {
            assert!(v.get("value").num().is_finite());
            (k.clone(), v.get("unit").str().to_string())
        })
        .collect()
}

const WORKLOADS: [&str; 4] = ["link", "transfer", "ocean", "relay"];

#[test]
fn printed_metrics_equal_benchmark_json() {
    let declared_workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut want = declared(key);
        want.sort();
        for w in WORKLOADS {
            let (lines, result) = run(w, 1, trace);
            let mut got = printed(&result);
            got.sort();
            assert_eq!(got, want, "{w} trace={trace}: metric names and units");
            assert_eq!(result.get("correct"), &Json::Bool(true), "{w}: {lines:#?}");
            assert_eq!(result.get("failed").num(), 0.0, "{w}: {lines:#?}");
            assert!(result.get("attempted").num() >= 1.0);
        }
    }
}

#[test]
fn end_to_end_metrics_have_bounds_and_setup_is_listed() {
    for m in benchmark_json().get("end_to_end").arr() {
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        assert!(matches!(m.get("better").str(), "lower" | "higher"));
    }
    let setup = declared("end_to_end");
    assert!(setup.contains(&("setup_s".to_string(), "s".to_string())));
}

#[test]
fn traced_stages_cover_the_trial_wall() {
    let (lines, result) = run("link", 3, true);
    let coverage = result
        .get("metrics")
        .get("trial.stage_coverage")
        .get("value")
        .num();
    assert!(
        (0.95..=1.05).contains(&coverage),
        "stage coverage {coverage}: {lines:#?}"
    );
}

fn fingerprint(lines: &[String]) -> String {
    lines
        .iter()
        .find(|l| l.contains("outputs fingerprint"))
        .expect("a fingerprint line")
        .clone()
}

#[test]
fn seed_changes_inputs_not_metric_set() {
    for w in WORKLOADS {
        let (a_lines, a) = run(w, 11, false);
        let (b_lines, b) = run(w, 12, false);
        let (c_lines, _) = run(w, 11, false);
        let names = |r: &Json| r.get("metrics").obj().keys().cloned().collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b), "{w}: metric set depends on the seed");
        assert_ne!(
            fingerprint(&a_lines),
            fingerprint(&b_lines),
            "{w}: seeds 11 and 12 produced identical outputs"
        );
        assert_eq!(
            fingerprint(&a_lines),
            fingerprint(&c_lines),
            "{w}: the same seed produced different outputs"
        );
    }
}
