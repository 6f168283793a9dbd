//! Seeded inputs and their independent oracles.
//!
//! The Σ families are fixed in shape; the seed only picks goals, their
//! order and the instance contents, so the work per request stays the
//! same across seeds. Expected answers come from code that shares
//! nothing with the engine under test: Armstrong closure
//! (`nfd::relational`) for the flat family, the nested chase
//! (`nfd::chase`) for nested schemas, and the logic evaluator
//! (`nfd::logic`) for instance checks.

use nfd::core::nfd::parse_set;
use nfd::core::Nfd;
use nfd::model::{Instance, Schema};
use nfd::relational::{self, AttrSet, Attribute, Fd};

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_7c4a_1100)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Attributes of the flat wide family (the B14/B18 shape). At 22 × 56
/// one cold `closure` through the binary takes about 70 ms and a cold
/// `implies` twice that (2 vCPUs), so a `cli_wide` run of 50 s collects
/// over 50 samples of each kind it reports a tail for. At 23 and 24
/// attributes a 40 s run collected 21 and 10, too few for a percentile
/// above the median with ten samples beyond it.
pub const WIDE_ATTRS: usize = 22;
/// Dependencies of the flat wide family.
pub const WIDE_DEPS: usize = 56;

/// A flat dependency `R:[a_i, a_j -> a_k]` by attribute index.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatDep {
    pub lhs: Vec<usize>,
    pub rhs: usize,
}

impl FlatDep {
    pub fn text(&self) -> String {
        let lhs: Vec<String> = self.lhs.iter().map(|a| format!("a{a}")).collect();
        format!("R:[{} -> a{}]", lhs.join(", "), self.rhs)
    }

    fn fd(&self) -> Fd {
        Fd::new(attr_set(&self.lhs), attr_set(&[self.rhs]))
    }
}

fn attr_set(idx: &[usize]) -> AttrSet {
    idx.iter()
        .map(|a| Attribute::new(format!("a{a}")))
        .collect()
}

/// The flat wide-Σ family over `R : {<a0 … a{attrs-1}>}`, with the same
/// deterministic attribute hashing as the library benches B14–B18.
#[derive(Clone)]
pub struct Flat {
    pub attrs: usize,
    pub deps: Vec<FlatDep>,
}

impl Flat {
    pub fn wide() -> Flat {
        Flat::family(WIDE_ATTRS, WIDE_DEPS)
    }

    /// The family at `attrs` attributes and `n` dependencies.
    pub fn family(attrs: usize, n: usize) -> Flat {
        let pick = |i: usize, salt: u64| -> usize {
            let mut z = (i as u64)
                .wrapping_add(salt)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize % attrs
        };
        let deps = (0..n)
            .map(|i| FlatDep {
                lhs: vec![pick(i, 1), pick(i, 2)],
                rhs: pick(i, 3),
            })
            .collect();
        Flat { attrs, deps }
    }

    pub fn schema_src(&self) -> String {
        let fields: Vec<String> = (0..self.attrs).map(|i| format!("a{i}: int")).collect();
        format!("R : {{<{}>}};", fields.join(", "))
    }

    pub fn deps_src(&self) -> String {
        self.deps
            .iter()
            .map(|d| format!("{};", d.text()))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Σ with `extra` added.
    pub fn with(&self, extra: Option<&FlatDep>) -> Flat {
        let mut f = self.clone();
        f.deps.extend(extra.cloned());
        f
    }

    fn fds(&self) -> Vec<Fd> {
        self.deps.iter().map(FlatDep::fd).collect()
    }

    /// Armstrong closure of `lhs`, as sorted attribute indices.
    pub fn closure(&self, lhs: &[usize]) -> Vec<usize> {
        let cl = relational::closure(&self.fds(), &attr_set(lhs));
        let mut out: Vec<usize> = cl
            .iter()
            .map(|a| a.0[1..].parse().expect("attribute names are a<index>"))
            .collect();
        out.sort_unstable();
        out
    }

    pub fn implies(&self, goal: &FlatDep) -> bool {
        self.closure(&goal.lhs).contains(&goal.rhs)
    }

    /// Candidate keys of at most four attributes (what `KEYS` and
    /// `nfdtool keys` report), by increasing-size search over Armstrong
    /// closures.
    pub fn keys(&self) -> Vec<Vec<usize>> {
        let fds = self.fds();
        let all = self.attrs;
        let mut keys: Vec<Vec<usize>> = Vec::new();
        let mut subset = Vec::new();
        for size in 1..=4 {
            combos(all, size, 0, &mut subset, &mut |s| {
                if keys.iter().any(|k| k.iter().all(|a| s.contains(a))) {
                    return;
                }
                if relational::closure(&fds, &attr_set(s)).len() == all {
                    keys.push(s.to_vec());
                }
            });
        }
        keys
    }

    /// Left-hand sides of goals and closures: each of Σ's own pairs
    /// (whose closures are large) plus one more attribute. There are
    /// over a thousand, so a goal drawn fresh rarely meets a closure an
    /// earlier request cached, and a repeated goal always does.
    fn lhs_universe(&self) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = Vec::new();
        for d in &self.deps {
            for x in (0..self.attrs).filter(|a| !d.lhs.contains(a)) {
                let mut p = d.lhs.clone();
                p.push(x);
                p.sort_unstable();
                p.dedup();
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Goal candidates split by verdict.
    pub fn goal_pool(&self) -> GoalPool {
        let mut pool = GoalPool {
            yes: Vec::new(),
            no: Vec::new(),
            lhs: self.lhs_universe(),
        };
        for p in &pool.lhs {
            let cl = self.closure(p);
            for rhs in (0..self.attrs).filter(|a| !p.contains(a)) {
                let g = FlatDep {
                    lhs: p.clone(),
                    rhs,
                };
                if cl.contains(&rhs) {
                    pool.yes.push(g);
                } else {
                    pool.no.push(g);
                }
            }
        }
        pool
    }

    /// Four dependencies absent from Σ whose addition grows some
    /// closure: the pool of `--add-dep` writes. Fixed (seed-independent), so
    /// every run writes the same population and only the order varies.
    pub fn write_pool(&self) -> Vec<FlatDep> {
        let mut out: Vec<FlatDep> = Vec::new();
        for d in self.deps.iter().step_by(7) {
            let cl = self.closure(&d.lhs);
            if d.lhs[0] == d.lhs[1] || out.iter().any(|o| o.lhs == d.lhs) {
                continue;
            }
            if let Some(rhs) = (0..self.attrs).rev().find(|a| !cl.contains(a)) {
                out.push(FlatDep {
                    lhs: d.lhs.clone(),
                    rhs,
                });
            }
            if out.len() == 4 {
                break;
            }
        }
        assert_eq!(out.len(), 4, "the wide family yields four write deps");
        out
    }
}

/// Goals of a flat Σ, by verdict, and the left-hand sides they use.
pub struct GoalPool {
    yes: Vec<FlatDep>,
    no: Vec<FlatDep>,
    lhs: Vec<Vec<usize>>,
}

impl GoalPool {
    /// A goal that is implied with probability `implied_share`.
    pub fn draw(&self, rng: &mut Rng, implied_share: f64) -> FlatDep {
        let pool = if rng.chance(implied_share) {
            &self.yes
        } else {
            &self.no
        };
        pool[rng.below(pool.len())].clone()
    }

    /// A left-hand side for `CLOSURE` / `nfdtool closure`.
    pub fn closure_lhs(&self, rng: &mut Rng) -> Vec<usize> {
        self.lhs[rng.below(self.lhs.len())].clone()
    }
}

fn combos(n: usize, k: usize, from: usize, cur: &mut Vec<usize>, f: &mut dyn FnMut(&[usize])) {
    if cur.len() == k {
        f(cur);
        return;
    }
    for i in from..n {
        cur.push(i);
        combos(n, k, i + 1, cur, f);
        cur.pop();
    }
}

/// Wire and CLI spelling of a closure answer: sorted `R:aN` paths.
pub fn closure_text(cl: &[usize]) -> String {
    let mut v: Vec<String> = cl.iter().map(|a| format!("R:a{a}")).collect();
    v.sort();
    v.join(" ")
}

/// Canonical spelling of a key list: members sorted, keys sorted.
pub fn keys_text(keys: &[Vec<usize>]) -> String {
    let v: Vec<Vec<String>> = keys
        .iter()
        .map(|k| k.iter().map(|a| format!("a{a}")).collect())
        .collect();
    canon_keys(v)
}

pub fn canon_keys(keys: Vec<Vec<String>>) -> String {
    let mut v: Vec<String> = keys
        .into_iter()
        .map(|mut k| {
            k.sort();
            format!("{{{}}}", k.join(","))
        })
        .collect();
    v.sort();
    v.join(" ")
}

/// A nested schema with a fixed goal list; verdicts by the chase.
pub struct Nested {
    pub name: &'static str,
    pub schema_src: String,
    pub deps_src: String,
    pub goals: Vec<(String, bool)>,
}

impl Nested {
    fn new(name: &'static str, schema_src: String, deps_src: String, goals: &[String]) -> Nested {
        let schema = Schema::parse(&schema_src).expect("fixture schema parses");
        let sigma = parse_set(&schema, &deps_src).expect("fixture deps parse");
        let goals = goals
            .iter()
            .map(|g| {
                let goal = Nfd::parse(&schema, g).expect("fixture goal parses");
                let yes = nfd::chase::implies_by_chase(&schema, &sigma, &goal)
                    .expect("the chase terminates on fixture goals");
                (g.clone(), yes)
            })
            .collect();
        Nested {
            name,
            schema_src,
            deps_src,
            goals,
        }
    }

    pub fn course() -> Nested {
        let goals = [
            "Course:[time, students:sid -> books]",
            "Course:[cnum -> time]",
            "Course:[time -> cnum]",
            "Course:[cnum -> books:title]",
            "Course:[students:sid -> students:age]",
            "Course:[students:sid -> students:grade]",
            "Course:students:[sid -> age]",
            "Course:[books:isbn -> books:title]",
            "Course:[time -> books]",
            "Course:[time, students:sid -> time]",
        ];
        Nested::new(
            "course",
            COURSE_SCHEMA.to_string(),
            COURSE_DEPS.to_string(),
            &goals.map(String::from),
        )
    }

    pub fn a1() -> Nested {
        let goals = [
            "R:[A -> D]",
            "R:[A -> E:F]",
            "R:[B:C -> H:J]",
            "R:[I -> D]",
            "R:[A -> H]",
            "R:[D -> A]",
            "R:[A, I -> H:J]",
            "R:[B:C -> E:F]",
        ];
        Nested::new(
            "a1",
            A1_SCHEMA.to_string(),
            A1_DEPS.to_string(),
            &goals.map(String::from),
        )
    }

    /// The depth-3 ladder of the library benches: every level's key
    /// determines its value and nested set.
    pub fn ladder() -> Nested {
        const DEPTH: usize = 3;
        fn level(d: usize) -> String {
            if d == DEPTH {
                format!("{{<k{d}: int, v{d}: int>}}")
            } else {
                format!("{{<k{d}: int, v{d}: int, s{d}: {}>}}", level(d + 1))
            }
        }
        let schema = format!("R : {};", level(0));
        let mut deps = String::new();
        let mut base = String::from("R");
        for d in 0..=DEPTH {
            deps.push_str(&format!("{base}:[k{d} -> v{d}]; "));
            if d < DEPTH {
                deps.push_str(&format!("{base}:[k{d} -> s{d}]; "));
                base.push_str(&format!(":s{d}"));
            }
        }
        let goals = [
            "R:[k0, s0:k1, s0:s1:k2, s0:s1:s2:k3 -> s0:s1:s2:v3]",
            "R:[k0, s0:k1 -> s0:v1]",
            "R:[k0 -> s0:v1]",
            "R:[k0 -> s0:s1:k2]",
            "R:s0:[k1 -> s1:v2]",
            "R:s0:[k1, s1:k2 -> s1:v2]",
            "R:[v0 -> k0]",
        ];
        Nested::new("ladder", schema, deps, &goals.map(String::from))
    }
}

pub const COURSE_SCHEMA: &str = "Course : { <cnum: string, time: int, students: {<sid: int, age: int, grade: string>}, books: {<isbn: string, title: string>}> };";
pub const COURSE_DEPS: &str = "Course:[cnum -> time]; Course:[cnum -> students]; Course:[cnum -> books]; Course:[books:isbn -> books:title]; Course:students:[sid -> grade]; Course:[students:sid -> students:age]; Course:[time, students:sid -> cnum];";
const A1_SCHEMA: &str = "R : { <A: int, B: {<C: int>}, D: int, E: {<F: int, G: int>}, H: {<J: int, L: int>}, I: int, M: {<N: int, O: int>}> };";
const A1_DEPS: &str =
    "R:[A -> B:C]; R:[B:C -> D]; R:[D -> E:F]; R:[A -> E:G]; R:[B:C -> H]; R:[I -> H:J];";

/// Course dependencies absent from the paper's Σ: the write pool of the
/// `serve_read` scratch tenant.
pub const COURSE_WRITES: [&str; 4] = [
    "Course:[time -> cnum]",
    "Course:[books:title -> books:isbn]",
    "Course:students:[grade -> sid]",
    "Course:[students:age -> students:sid]",
];

/// Courses and students per course of the `check` instance.
const CHECK_COURSES: usize = 160;
const CHECK_FANOUT: usize = 16;

/// A Course-shaped instance that satisfies the paper's Σ (unique course
/// times, per-student ages, per-ISBN titles). Its shape is fixed so the
/// cost of checking it is too; the seed picks the grades and the order
/// of the courses.
pub fn course_instance(rng: &mut Rng) -> String {
    let grades = ["A", "B", "C", "D"];
    let mut courses = Vec::new();
    for c in 0..CHECK_COURSES {
        let students: Vec<String> = (0..CHECK_FANOUT)
            .map(|j| {
                let s = (c * 5 + j * 8) % (CHECK_FANOUT * 8);
                format!(
                    "<sid: {s}, age: {}, grade: \"{}\">",
                    18 + s % 13,
                    grades[rng.below(4)]
                )
            })
            .collect();
        let books: Vec<String> = (0..CHECK_FANOUT / 2)
            .map(|j| {
                let b = (c * 3 + j * 8) % (CHECK_FANOUT * 4);
                format!("<isbn: \"i{b}\", title: \"t{}\">", b % 17)
            })
            .collect();
        courses.push(format!(
            "<cnum: \"c{c}\", time: {}, students: {{{}}}, books: {{{}}}>",
            100 + c,
            students.join(", "),
            books.join(", ")
        ));
    }
    rng.shuffle(&mut courses);
    format!("Course = {{ {} }};", courses.join(",\n "))
}

/// Which NFDs of `deps` the instance satisfies, by the logic evaluator.
pub fn check_oracle(schema_src: &str, deps_src: &str, instance_src: &str) -> Vec<(String, bool)> {
    let schema = Schema::parse(schema_src).expect("fixture schema parses");
    let sigma = parse_set(&schema, deps_src).expect("fixture deps parse");
    let inst = Instance::parse(&schema, instance_src).expect("generated instance parses");
    sigma
        .iter()
        .map(|nfd| {
            let f = nfd.to_formula(&schema).expect("fixture NFDs translate");
            let holds = nfd::logic::eval(&inst, &f).expect("the evaluator decides fixtures");
            (nfd.to_string(), holds)
        })
        .collect()
}
