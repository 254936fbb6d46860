//! Property tests of the one-pass `DeltaArtifact` JSON decoder.
//!
//! Randomised inputs come from hand-rolled seed loops over the in-tree
//! [`tasfar_nn::rng::Rng`], as in `property.rs`: each case derives every
//! input from a case-indexed stream, so a failure reproduces from the case
//! number in its message. The reference for what the decoder must accept
//! is a test-local oracle: [`Json::parse`] plus field lookups, the tree
//! decode the streaming one replaced.

use tasfar_nn::adapter::{enable_adapters, AdapterConfig};
use tasfar_nn::init::Init;
use tasfar_nn::json::{Json, JsonError};
use tasfar_nn::layers::{Dense, Relu, Sequential};
use tasfar_nn::rng::Rng;
use tasfar_nn::spec::{DeltaApplyError, DeltaArtifact};

/// Values a decoder gets wrong first: signed zeros, subnormals, the
/// extremes of the finite range, and integral values (which the writer
/// prints with a trailing `.0`).
const SPECIAL: [f64; 16] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    2.225_073_858_507_201e-308, // the largest subnormal
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    1.0,
    -7.0,
    42.0,
    9_007_199_254_740_992.0,
    1e22,
    0.1,
    -1e-300,
];

/// Integer literals the writer never emits but the tree decode accepts:
/// past 2^53, `u64::MAX`, one past it, leading zeros, a negative zero.
const INTEGER_LITERALS: [&str; 8] = [
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "123456789012345678901234567890",
    "0",
    "-0",
    "007",
    "-12",
];

fn value(g: &mut Rng) -> f64 {
    match g.below(4) {
        0 => SPECIAL[g.below(SPECIAL.len())],
        1 => loop {
            // Any finite bit pattern: every exponent, subnormals included.
            let v = f64::from_bits(g.u64());
            if v.is_finite() {
                break v;
            }
        },
        2 => g.gaussian(0.0, 1.0),
        _ => g.gaussian(0.0, 1e3).round(),
    }
}

/// A random artifact: up to five tensors, empty ones included.
fn random_artifact(g: &mut Rng) -> DeltaArtifact {
    let shapes: Vec<(usize, usize)> = (0..g.below(6)).map(|_| (g.below(5), g.below(5))).collect();
    let values = shapes
        .iter()
        .map(|&(r, c)| (0..r * c).map(|_| value(g)).collect())
        .collect();
    DeltaArtifact {
        rank: g.below(65),
        alpha: value(g),
        shapes,
        values,
    }
}

fn same_bits(a: &DeltaArtifact, b: &DeltaArtifact) -> bool {
    a.rank == b.rank
        && a.alpha.to_bits() == b.alpha.to_bits()
        && a.shapes == b.shapes
        && a.values.len() == b.values.len()
        && a.values.iter().zip(&b.values).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The tree decode: parse the whole document, then look fields up.
fn oracle(text: &str) -> Result<DeltaArtifact, JsonError> {
    let v = Json::parse(text)?;
    let shapes = v
        .field("shapes")?
        .as_arr()?
        .iter()
        .map(|s| match s.as_arr()? {
            [r, c] => Ok((r.as_usize()?, c.as_usize()?)),
            _ => Err(JsonError::new("each shape must be [rows, cols]")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DeltaArtifact {
        rank: v.field("rank")?.as_usize()?,
        alpha: v.field("alpha")?.as_f64()?,
        shapes,
        values: v.decode("values")?,
    })
}

/// Decodes `text` with both decoders and requires the same outcome: equal
/// bits, or an error from both. Returns whether it decoded.
fn assert_matches_oracle(text: &str, what: &str) -> bool {
    match (DeltaArtifact::from_json(text), oracle(text)) {
        (Ok(got), Ok(want)) => {
            assert!(same_bits(&got, &want), "{what}: decodes differ\n{text}");
            true
        }
        (Err(_), Err(_)) => false,
        (got, want) => panic!("{what}: decoder {got:?}, oracle {want:?}\n{text}"),
    }
}

/// Writes documents token by token, with random whitespace around every
/// token when `spaced`.
struct Writer<'g> {
    g: &'g mut Rng,
    spaced: bool,
}

impl Writer<'_> {
    fn ws(&mut self) -> &'static str {
        const WS: [&str; 6] = ["", " ", "\n", "\t", "  ", "\r\n"];
        if self.spaced {
            WS[self.g.below(WS.len())]
        } else {
            ""
        }
    }

    fn array(&mut self, items: &[String]) -> String {
        let mut s = String::from("[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                s.push_str(self.ws());
                s.push(',');
            }
            s.push_str(self.ws());
            s.push_str(item);
        }
        s.push_str(self.ws());
        s.push(']');
        s
    }

    fn object(&mut self, members: &[(String, String)]) -> String {
        let mut s = String::from(self.ws());
        s.push('{');
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                s.push_str(self.ws());
                s.push(',');
            }
            s.push_str(self.ws());
            s.push_str(&format!("\"{key}\""));
            s.push_str(self.ws());
            s.push(':');
            s.push_str(self.ws());
            s.push_str(value);
        }
        s.push_str(self.ws());
        s.push('}');
        s.push_str(self.ws());
        s
    }
}

fn num(v: f64) -> String {
    Json::Num(v).to_string()
}

#[test]
fn decode_inverts_encode_bit_for_bit() {
    for case in 0..300u64 {
        let mut g = Rng::new(0xDE17A ^ case);
        let a = random_artifact(&mut g);
        let back = DeltaArtifact::from_json(&a.to_json())
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{}", a.to_json()));
        assert!(
            same_bits(&a, &back),
            "case {case}: {a:?} came back as {back:?}"
        );
    }
}

#[test]
fn rewritten_documents_decode_like_the_tree_oracle() {
    let mut decoded = 0;
    for case in 0..400u64 {
        let mut g = Rng::new(0x0DAC1E ^ case);
        let a = random_artifact(&mut g);
        let alt = random_artifact(&mut g);
        let spaced = g.bernoulli(0.5);
        let integers = g.bernoulli(0.5);
        let mut w = Writer { g: &mut g, spaced };

        // Shapes sometimes as integral floats, which `as_usize` accepts.
        let shape_text = |w: &mut Writer<'_>, n: usize| match w.g.below(4) {
            0 => format!("{n}.0"),
            1 => format!("{n}e0"),
            _ => n.to_string(),
        };
        let shapes: Vec<String> = a
            .shapes
            .iter()
            .map(|&(r, c)| {
                let pair = [shape_text(&mut w, r), shape_text(&mut w, c)];
                w.array(&pair)
            })
            .collect();
        let values: Vec<String> = a
            .values
            .iter()
            .map(|vs| {
                let items: Vec<String> = vs
                    .iter()
                    .map(|&v| {
                        if integers && w.g.bernoulli(0.3) {
                            INTEGER_LITERALS[w.g.below(INTEGER_LITERALS.len())].to_string()
                        } else {
                            num(v)
                        }
                    })
                    .collect();
                w.array(&items)
            })
            .collect();
        let mut members = vec![
            ("rank".to_string(), a.rank.to_string()),
            ("alpha".to_string(), num(a.alpha)),
            ("shapes".to_string(), w.array(&shapes)),
            ("values".to_string(), w.array(&values)),
        ];
        if w.g.bernoulli(0.5) {
            w.g.shuffle(&mut members);
        }
        if w.g.bernoulli(0.3) {
            let extra = [
                r#"{"a": [1, 2.5, {"b": null}], "c": "x\"y"}"#,
                "\"note\"",
                "true",
                "[1e5, -3, []]",
                "null",
            ];
            let at = w.g.below(members.len() + 1);
            let value = extra[w.g.below(extra.len())].to_string();
            members.insert(at, ("extra".to_string(), value));
        }
        if w.g.bernoulli(0.3) {
            // A second occurrence of one key, before or after the first,
            // holding either another artifact's value or a wrong type.
            let (key, value) = match w.g.below(6) {
                0 => ("rank", alt.rank.to_string()),
                1 => ("alpha", num(alt.alpha)),
                2 => ("shapes", field_json(&alt, "shapes")),
                3 => ("values", field_json(&alt, "values")),
                4 => ("rank", "\"four\"".to_string()),
                _ => ("values", "[[true]]".to_string()),
            };
            let at = w.g.below(members.len() + 1);
            members.insert(at, (key.to_string(), value));
        }
        let doc = w.object(&members);
        if assert_matches_oracle(&doc, &format!("case {case}")) {
            decoded += 1;
        }
    }
    // Most rewrites keep the document valid; a wrong-typed repeat placed
    // first must fail. Both outcomes are exercised.
    assert!((300..400).contains(&decoded), "{decoded} of 400 decoded");
}

/// The compact JSON of one field of an artifact.
fn field_json(a: &DeltaArtifact, key: &str) -> String {
    Json::parse(&a.to_json())
        .unwrap()
        .field(key)
        .unwrap()
        .to_string()
}

#[test]
fn truncations_and_byte_flips_never_panic() {
    // Printable ASCII plus the whitespace bytes: replacing one byte of an
    // ASCII document with any of these keeps it valid UTF-8.
    let replacements: Vec<u8> = (0x20u8..0x7f).chain([b'\n', b'\t', b'\r']).collect();
    for case in 0..12u64 {
        let mut g = Rng::new(0x7C0E ^ case);
        let doc = random_artifact(&mut g).to_json();
        for end in 0..doc.len() {
            assert!(
                DeltaArtifact::from_json(&doc[..end]).is_err(),
                "case {case}: the {end}-byte prefix of a document must not decode"
            );
        }
        for flip in 0..200 {
            let mut bytes = doc.clone().into_bytes();
            let at = g.below(bytes.len());
            bytes[at] = replacements[g.below(replacements.len())];
            let text = String::from_utf8(bytes).expect("ASCII in, ASCII out");
            assert_matches_oracle(&text, &format!("case {case} flip {flip} at byte {at}"));
        }
    }
}

#[test]
fn a_huge_shape_claim_reserves_only_what_the_input_holds() {
    for (rows, cols) in [(1usize << 20, 1usize << 20), (1 << 32, 1 << 32)] {
        let doc = format!(
            r#"{{"rank":2,"alpha":1.0,"shapes":[[{rows},{cols}]],"values":[[1.0,2.0,3.0]]}}"#
        );
        let a = DeltaArtifact::from_json(&doc).expect("a count mismatch is check's to report");
        assert_eq!(a.shapes, vec![(rows, cols)]);
        assert_eq!(a.values, vec![vec![1.0, 2.0, 3.0]]);
        assert!(
            a.values[0].capacity() <= doc.len(),
            "a {rows}x{cols} claim reserved {} slots for a {}-byte document",
            a.values[0].capacity(),
            doc.len()
        );
    }
}

#[test]
fn overflowing_literals_are_rejected() {
    let doc =
        |v: &str| format!(r#"{{"rank":2,"alpha":1.0,"shapes":[[1,2]],"values":[[{v},0.5]]}}"#);
    let huge_integer = format!("1{}", "0".repeat(400));
    for bad in ["1e999", "-1e999", "1e309", "2e308", huge_integer.as_str()] {
        assert!(
            DeltaArtifact::from_json(&doc(bad)).is_err(),
            "{bad} must not decode"
        );
        assert!(Json::parse(bad).is_err(), "{bad} must not parse");
    }
    // Underflow is not an error: it rounds to a (signed) zero.
    let a = DeltaArtifact::from_json(&doc("-1e-999")).unwrap();
    assert_eq!(a.values[0][0].to_bits(), (-0.0f64).to_bits());
    assert_matches_oracle(&doc("-1e-999"), "underflow");
}

#[test]
fn check_reports_an_overflowing_shape_as_corrupt() {
    let mut rng = Rng::new(3);
    let mut model = Sequential::new()
        .add(Dense::new(3, 4, Init::HeNormal, &mut rng))
        .add(Relu::new())
        .add(Dense::new(4, 1, Init::HeNormal, &mut rng));
    enable_adapters(&mut model, &AdapterConfig::rank(2), &mut rng);
    let mut a = DeltaArtifact::capture(&mut model, &AdapterConfig::rank(2));
    let n = a.shapes.len();
    a.shapes.push((1 << 32, 1 << 32));
    match a.check(&mut model) {
        Err(DeltaApplyError::Corrupt {
            index, found_len, ..
        }) => {
            assert_eq!((index, found_len), (n, 0));
        }
        other => panic!("expected Corrupt at tensor {n}, got {other:?}"),
    }
}
