//! The direct JSON printer against its oracle.
//!
//! `serde_json::to_string` prints typed values field by field through
//! `Serialize::write_json`; `serde_json::to_value(x).to_string()` builds
//! the `Value` tree and prints it through `Value`'s `Display`, the
//! reference printer. Every answer the broker serves, every journal
//! entry it writes, and crafted values covering each escape class, float
//! edge and derive shape must come out of both byte for byte.

use serde::{Map, Number, Serialize, Value};
use uptime_broker::{
    BrokerService, FrontierRequest, JournalEntry, SolutionRequest, JOURNAL_SCHEMA_VERSION,
};
use uptime_catalog::{case_study, extended, CatalogStore, ComponentKind, HaMethodId};
use uptime_core::sla::PenaltyTier;
use uptime_core::{PenaltyClause, RoundingPolicy};
use uptime_optimizer::Archetype;
use uptime_slo::SloSpec;

/// Asserts that the typed printer, the `Value` printer and the oracle
/// print `x` identically, and returns the text.
fn assert_renders_like_the_tree<T: Serialize + ?Sized>(label: &str, x: &T) -> String {
    let tree = serde_json::to_value(x);
    let oracle = tree.to_string();
    let typed = serde_json::to_string(x).expect("serializes");
    assert_eq!(
        typed, oracle,
        "{label}: typed printer drifted from the tree"
    );
    let from_tree = serde_json::to_string(&tree).expect("serializes");
    assert_eq!(from_tree, oracle, "{label}: Value printer drifted");
    typed
}

fn paper_request() -> SolutionRequest {
    SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(case_study::SLA_PERCENT)
        .expect("valid SLA")
        .penalty_per_hour(case_study::PENALTY_PER_HOUR)
        .expect("valid penalty")
        .build()
        .expect("valid request")
}

fn archetype_request(archetype: Archetype) -> SolutionRequest {
    SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(case_study::SLA_PERCENT)
        .expect("valid SLA")
        .penalty_per_hour(case_study::PENALTY_PER_HOUR)
        .expect("valid penalty")
        .topology(archetype.name())
        .build()
        .expect("valid request")
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A request with seeded tier order, SLA, penalty clause and rounding.
fn seeded_request(seed: u64) -> SolutionRequest {
    let mut rng = seed;
    let mut unit = || (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
    let mut tiers = ComponentKind::paper_tiers().to_vec();
    let rotate = (unit() * 3.0) as usize;
    tiers.rotate_left(rotate);
    tiers.truncate(1 + (unit() * 3.0) as usize);
    let percent = 90.0 + unit() * 9.99;
    let penalty = if unit() < 0.5 {
        PenaltyClause::per_hour(1.0 + unit() * 500.0).expect("valid rate")
    } else {
        let first = 1.0 + unit() * 10.0;
        PenaltyClause::tiered(vec![
            PenaltyTier {
                up_to_hours: first,
                rate: unit() * 100.0,
            },
            PenaltyTier {
                up_to_hours: first + 1.0 + unit() * 50.0,
                rate: unit() * 1000.0,
            },
        ])
        .expect("valid tiers")
    };
    let rounding = [
        RoundingPolicy::Exact,
        RoundingPolicy::NearestHour,
        RoundingPolicy::CeilHour,
    ][(unit() * 3.0) as usize];
    SolutionRequest::builder()
        .tiers(tiers)
        .sla_percent(percent)
        .expect("valid SLA")
        .penalty(penalty)
        .rounding(rounding)
        .build()
        .expect("valid request")
}

#[test]
fn recommend_answers_render_like_the_tree() {
    let paper = BrokerService::new(case_study::catalog());
    let hybrid = BrokerService::new(extended::hybrid_catalog());
    let answer = |service: &BrokerService, request: &SolutionRequest| {
        service.recommend(request).expect("recommends")
    };

    let text = assert_renders_like_the_tree("paper", &answer(&paper, &paper_request()));
    assert!(
        text.len() > 1_000,
        "a full option table: {} bytes",
        text.len()
    );
    assert_renders_like_the_tree("hybrid", &answer(&hybrid, &paper_request()));
    for archetype in Archetype::all() {
        let request = archetype_request(*archetype);
        assert_renders_like_the_tree(archetype.name(), &answer(&paper, &request));
    }
    for seed in 0..12 {
        let request = seeded_request(seed);
        assert_renders_like_the_tree(&format!("seed {seed}"), &answer(&paper, &request));
    }
    let as_is = SolutionRequest::builder()
        .tiers(ComponentKind::paper_tiers())
        .sla_percent(case_study::SLA_PERCENT)
        .expect("valid SLA")
        .penalty_per_hour(case_study::PENALTY_PER_HOUR)
        .expect("valid penalty")
        .as_is(vec![
            HaMethodId::new("vmware-ha-3p1"),
            HaMethodId::new("raid1"),
            HaMethodId::new("dual-gw"),
        ])
        .build()
        .expect("valid request");
    assert_renders_like_the_tree("as-is", &answer(&paper, &as_is));
}

#[test]
fn metacloud_answers_render_like_the_tree() {
    let hybrid = BrokerService::new(extended::hybrid_catalog());
    for (label, request) in [("paper", paper_request()), ("seed 3", seeded_request(3))] {
        let answer = hybrid.recommend_metacloud(&request).expect("metacloud");
        assert_renders_like_the_tree(label, &answer);
    }
}

#[test]
fn frontier_reports_render_like_the_tree() {
    let spec = r#"{ "objectives": [
        { "metric": "uptime", "threshold": 92.0, "mode": "hard" },
        { "metric": "cost", "threshold": 1000.0, "mode": "soft", "weight": 1.0 }
    ] }"#;
    let frontier = |catalog: CatalogStore, topology: Option<&str>| {
        let mut base = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .penalty_per_hour(100.0)
            .expect("valid penalty");
        if let Some(name) = topology {
            base = base.topology(name);
        }
        let request =
            FrontierRequest::from_spec(base, SloSpec::from_json_str(spec).expect("valid spec"))
                .expect("valid request");
        BrokerService::new(catalog)
            .solve_slo(&request)
            .expect("feasible")
    };
    assert_renders_like_the_tree("serial", &frontier(case_study::catalog(), None));
    assert_renders_like_the_tree("hybrid serial", &frontier(extended::hybrid_catalog(), None));
    for archetype in Archetype::all() {
        let report = frontier(case_study::catalog(), Some(archetype.name()));
        assert_renders_like_the_tree(archetype.name(), &report);
    }
}

/// A journal entry built through its `Deserialize` impl, as replay
/// builds them.
fn journal_entry(
    cloud: &str,
    kind: &str,
    p: f64,
    f: f64,
    failover: Option<f64>,
    node_years: f64,
) -> JournalEntry {
    serde_json::from_value(&serde_json::json!({
        "schema_version": JOURNAL_SCHEMA_VERSION,
        "cloud": cloud,
        "kind": kind,
        "epoch_after": u64::MAX,
        "estimate": {
            "down_probability": p,
            "failures_per_year": f,
            "failover_time": failover,
            "node_years": node_years,
        },
        "record": {
            "down_probability": p / 2.0,
            "failures_per_year": f * 3.0,
            "node_years_observed": node_years * 7.0,
        },
    }))
    .expect("valid journal entry")
}

/// Recovery parses journal entries back, and replay is bit-identical
/// only if every entry round-trips exactly.
#[test]
fn journal_entries_render_like_the_tree() {
    let cases = [
        journal_entry("aws", "Compute", 0.1 + 0.2, 1.5, None, 100.0),
        journal_entry(
            "cl\"oud\\with\nweird\tchars\u{01}",
            "NetworkGateway",
            1.0,
            0.0,
            Some(12.75),
            0.0,
        ),
        journal_entry("g", "Storage", 1e-300, 8_000_000.0, Some(0.1), 1e15),
        journal_entry("az", "Database", 0.333_333_333_333_333_3, 2.0, None, 41.7),
        journal_entry("x", "LoadBalancer", 0.0, 123.456_789, Some(5.0), 9.9),
        journal_entry("y", "Cache", 0.999_999_999_999, 0.001, None, 0.25),
    ];
    for case in cases {
        let text = assert_renders_like_the_tree("journal entry", &case);
        let back: JournalEntry = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, case, "round-trip not lossless");
    }
}

#[test]
fn crafted_values_render_like_the_tree() {
    let escapes = "\" \\ \n \r \t \u{08} \u{0c} \u{01} \u{1f} \u{7f} é 日本 🦀 plain";
    let float = |v: f64| Value::Number(Number::Float(v));
    let mut object = Map::new();
    object.insert(escapes.to_owned(), Value::String(escapes.to_owned()));
    object.insert(String::new(), Value::String(String::new()));
    object.insert("empty array".to_owned(), Value::Array(Vec::new()));
    object.insert("empty object".to_owned(), Value::Object(Map::new()));
    object.insert(
        "floats".to_owned(),
        Value::Array(vec![
            float(-0.0),
            float(0.0),
            float(5e-324),
            float(1e300),
            float(-1e300),
            float(f64::MAX),
            float(f64::NAN),
            float(f64::INFINITY),
            float(f64::NEG_INFINITY),
            float(1250.0),
            float(0.1),
        ]),
    );
    object.insert(
        "integers".to_owned(),
        Value::Array(vec![
            Value::Number(Number::PosInt(0)),
            Value::Number(Number::PosInt(u64::MAX)),
            Value::Number(Number::NegInt(-1)),
            Value::Number(Number::NegInt(i64::MIN)),
        ]),
    );
    object.insert(
        "scalars".to_owned(),
        Value::Array(vec![Value::Null, Value::Bool(true), Value::Bool(false)]),
    );
    let value = Value::Object(object);
    let text = assert_renders_like_the_tree("crafted value", &value);
    assert!(
        text.contains(r#"\" \\ \n \r \t \b \f \u0001 \u001f"#),
        "{text}"
    );
    assert!(text.contains("\u{7f} é 日本 🦀"), "{text}");
    assert!(text.contains("[-0.0,0.0,5e-324,1e300,-1e300,"), "{text}");
    assert!(text.contains("null,null,null,1250.0,0.1]"), "{text}");

    for scalar in [
        Value::Null,
        Value::String(String::new()),
        Value::Array(Vec::new()),
        Value::Object(Map::new()),
    ] {
        assert_renders_like_the_tree("empty", &scalar);
    }
}

#[derive(Clone, Serialize)]
#[serde(into = "f64")]
struct Meters(f64);

impl From<Meters> for f64 {
    fn from(m: Meters) -> f64 {
        m.0
    }
}

#[derive(Serialize)]
struct Newtype(String);

#[derive(Serialize)]
struct Pair(u8, Option<i32>);

#[derive(Serialize)]
struct Nothing;

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Tuple(u8, String),
    Struct { zz: i8, aa: bool },
    EmptyTuple(),
    EmptyStruct {},
}

/// Field names declared out of byte order, which puts digits before
/// upper case, upper case before `_`, and `_` before lower case.
#[allow(non_snake_case)]
#[derive(Serialize)]
struct Crafted {
    zeta: Vec<Shape>,
    a_z: Newtype,
    aZ: Pair,
    a1: Nothing,
    alpha: Empty,
    big: [u128; 3],
    small: (i64, i8, isize, usize),
    float: (f32, f64, Meters),
    text: (char, char, &'static str),
    tree_only: Option<TreeOnly>,
}

/// A hand-written impl with only `to_value`: printed through the tree
/// by the default `write_json`.
struct TreeOnly;

impl Serialize for TreeOnly {
    fn to_value(&self) -> Value {
        serde_json::json!({ "b": [1u8, "x"], "a": 0.5 })
    }
}

#[test]
fn crafted_types_render_like_the_tree() {
    let crafted = Crafted {
        zeta: vec![
            Shape::Unit,
            Shape::Newtype(-0.0),
            Shape::Tuple(7, "t\"u".to_owned()),
            Shape::Struct { zz: -8, aa: true },
            Shape::EmptyTuple(),
            Shape::EmptyStruct {},
        ],
        a_z: Newtype("new\ntype".to_owned()),
        aZ: Pair(255, None),
        a1: Nothing,
        alpha: Empty {},
        big: [u128::from(u64::MAX), u128::from(u64::MAX) + 1, u128::MAX],
        small: (i64::MIN, i8::MIN, -1, usize::MAX),
        float: (0.1f32, f64::NAN, Meters(2.5)),
        text: ('"', '\u{1f}', "é"),
        tree_only: Some(TreeOnly),
    };
    let text = assert_renders_like_the_tree("crafted struct", &crafted);
    assert!(
        text.starts_with(r#"{"a1":null,"aZ":[255,null],"a_z":"new\ntype","alpha":{},"big":"#),
        "{text}"
    );
    assert!(
        text.contains("18446744073709551615,1.8446744073709552e19,"),
        "{text}"
    );
    assert!(text.contains(r#"[0.10000000149011612,null,2.5]"#), "{text}");
    assert!(
        text.contains(
            r#"["Unit",{"Newtype":-0.0},{"Tuple":[7,"t\"u"]},{"Struct":{"aa":true,"zz":-8}},{"EmptyTuple":[]},{"EmptyStruct":{}}]"#
        ),
        "{text}"
    );
    assert!(
        text.contains(r#""tree_only":{"a":0.5,"b":[1,"x"]}"#),
        "{text}"
    );
    assert_renders_like_the_tree("none", &None::<Crafted>);
}
