//! Pure builtin functions available to StateLang programs.
//!
//! Builtins are deterministic and side-effect free, preserving the
//! re-execution property required for log-based recovery (§4.1
//! "deterministic execution"). Time- or randomness-dependent functions are
//! deliberately absent.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use sdg_common::error::{SdgError, SdgResult};
use sdg_common::value::Value;

/// Returns the arity of builtin `name`, or `None` if it is not a builtin.
pub fn builtin_arity(name: &str) -> Option<usize> {
    Some(match name {
        "len" | "abs" | "sqrt" | "exp" | "floor" | "to_int" | "to_float" | "lower" | "first"
        | "last" | "vec_zeros" | "sum" => 1,
        "append" | "vec_add" | "vec_scale" | "dot" | "min" | "max" | "split" | "pair"
        | "get_at" | "concat" | "pairs_add" => 2,
        _ => return None,
    })
}

/// Evaluates builtin `name` over already-evaluated arguments.
///
/// # Errors
///
/// Returns [`SdgError::Eval`] for unknown builtins or arity mismatches and
/// [`SdgError::Type`] when arguments have the wrong runtime type.
pub fn eval_builtin(name: &str, args: &[Value]) -> SdgResult<Value> {
    let expected = builtin_arity(name)
        .ok_or_else(|| SdgError::Eval(format!("unknown builtin function `{name}`")))?;
    if args.len() != expected {
        return Err(SdgError::Eval(format!(
            "builtin `{name}` expects {expected} arguments, found {}",
            args.len()
        )));
    }
    match name {
        "len" => match &args[0] {
            Value::List(_) | Value::Pairs(_) => Ok(Value::Int(args[0].list_len()? as i64)),
            Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
            other => Err(SdgError::type_mismatch("List|Str", other.type_name())),
        },
        "abs" => match &args[0] {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(x) => Ok(Value::Float(x.abs())),
            other => Err(SdgError::type_mismatch("Int|Float", other.type_name())),
        },
        "sqrt" => Ok(Value::Float(args[0].as_float()?.sqrt())),
        "exp" => Ok(Value::Float(args[0].as_float()?.exp())),
        "floor" => Ok(Value::Float(args[0].as_float()?.floor())),
        "to_int" => match &args[0] {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(x) => Ok(Value::Int(*x as i64)),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| SdgError::Eval(format!("cannot parse `{s}` as int"))),
            other => Err(SdgError::type_mismatch(
                "Int|Float|Bool|Str",
                other.type_name(),
            )),
        },
        "to_float" => Ok(Value::Float(args[0].as_float()?)),
        "lower" => Ok(Value::str(args[0].as_str()?.to_lowercase())),
        "first" => Ok(args[0].list_get(0)?.unwrap_or(Value::Null)),
        "last" => {
            // An empty list wraps to an index past its end: `Null`.
            let last = args[0].list_len()?.wrapping_sub(1);
            Ok(args[0].list_get(last)?.unwrap_or(Value::Null))
        }
        "sum" => {
            let list = args[0].as_list()?;
            let mut acc = 0.0;
            for v in list.iter() {
                acc += v.as_float()?;
            }
            Ok(Value::Float(acc))
        }
        "vec_zeros" => {
            let n = args[0].as_int()?;
            if n < 0 {
                return Err(SdgError::Eval(
                    "vec_zeros length must be non-negative".into(),
                ));
            }
            Ok(Value::List(vec![Value::Float(0.0); n as usize]))
        }
        "append" => {
            let mut list = args[0].as_list()?.into_owned();
            list.push(args[1].clone());
            Ok(Value::List(list))
        }
        "vec_add" => {
            let a = args[0].as_list()?;
            let b = args[1].as_list()?;
            let n = a.len().max(b.len());
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let x = a.get(i).map(Value::as_float).transpose()?.unwrap_or(0.0);
                let y = b.get(i).map(Value::as_float).transpose()?.unwrap_or(0.0);
                out.push(Value::Float(x + y));
            }
            Ok(Value::List(out))
        }
        "vec_scale" => {
            let a = args[0].as_list()?;
            let s = args[1].as_float()?;
            Ok(Value::List(
                a.iter()
                    .map(|v| v.as_float().map(|x| Value::Float(x * s)))
                    .collect::<SdgResult<_>>()?,
            ))
        }
        "dot" => {
            let a = args[0].as_list()?;
            let b = args[1].as_list()?;
            let mut acc = 0.0;
            for i in 0..a.len().min(b.len()) {
                acc += a[i].as_float()? * b[i].as_float()?;
            }
            Ok(Value::Float(acc))
        }
        "min" => binary_numeric(&args[0], &args[1], i64::min, f64::min),
        "max" => binary_numeric(&args[0], &args[1], i64::max, f64::max),
        "split" => {
            let s = args[0].as_str()?;
            let sep = args[1].as_str()?;
            let parts: Vec<Value> = if sep.is_empty() {
                s.split_whitespace().map(Value::str).collect()
            } else {
                s.split(sep)
                    .filter(|p| !p.is_empty())
                    .map(Value::str)
                    .collect()
            };
            Ok(Value::List(parts))
        }
        "pair" => Ok(Value::List(vec![args[0].clone(), args[1].clone()])),
        "pairs_add" => {
            // Merges two sparse `[key, value]` pair lists, summing values of
            // equal keys; the result is sorted by key. This is the natural
            // reconciliation for sparse vectors such as CF recommendation
            // results.
            let malformed = |e| match e {
                SdgError::Eval(_) => {
                    SdgError::Eval("pairs_add expects lists of [key, value] pairs".into())
                }
                e => e,
            };
            let a = args[0].pairs().map_err(malformed)?;
            let b = args[1].pairs().map_err(malformed)?;
            Ok(Value::Pairs(pairs_add(&a, &b)))
        }
        "get_at" => {
            args[0].list_len()?;
            let i = usize::try_from(args[1].as_int()?).unwrap_or(usize::MAX);
            Ok(args[0].list_get(i)?.unwrap_or(Value::Null))
        }
        "concat" => {
            let a = args[0].as_str()?;
            let b = args[1].as_str()?;
            Ok(Value::Str(Arc::from(format!("{a}{b}").as_str())))
        }
        _ => unreachable!("arity table and dispatch table must match"),
    }
}

/// `a + b` for sparse vectors, sorted by key. Every sum starts from
/// `0.0` and adds `a`'s value before `b`'s, so a one-sided `-0.0` comes out
/// as `0.0`. Strictly ascending inputs (what `row`, `multiply` and
/// `pairs_add` produce) merge in one pass; others go through a map.
fn pairs_add(a: &[(i64, f64)], b: &[(i64, f64)]) -> Arc<[(i64, f64)]> {
    let ascending = |s: &[(i64, f64)]| s.windows(2).all(|w| w[0].0 < w[1].0);
    if !(ascending(a) && ascending(b)) {
        return pairs_add_unsorted(a, b);
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&(ka, va)), Some(&(kb, vb))) = (a.get(i), b.get(j)) {
        match ka.cmp(&kb) {
            Ordering::Less => {
                out.push((ka, 0.0 + va));
                i += 1;
            }
            Ordering::Greater => {
                out.push((kb, 0.0 + vb));
                j += 1;
            }
            Ordering::Equal => {
                out.push((ka, 0.0 + va + vb));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(a[i..].iter().chain(&b[j..]).map(|&(k, v)| (k, 0.0 + v)));
    out.into()
}

/// [`pairs_add`] for any order and repeated keys.
fn pairs_add_unsorted(a: &[(i64, f64)], b: &[(i64, f64)]) -> Arc<[(i64, f64)]> {
    let mut acc = BTreeMap::new();
    for &(k, v) in a.iter().chain(b) {
        *acc.entry(k).or_insert(0.0) += v;
    }
    acc.into_iter().collect()
}

fn binary_numeric(
    a: &Value,
    b: &Value,
    fi: impl Fn(i64, i64) -> i64,
    ff: impl Fn(f64, f64) -> f64,
) -> SdgResult<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(fi(*x, *y))),
        _ => Ok(Value::Float(ff(a.as_float()?, b.as_float()?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(name: &str, args: &[Value]) -> Value {
        eval_builtin(name, args).unwrap()
    }

    #[test]
    fn arity_table_matches_dispatch() {
        for name in [
            "len",
            "abs",
            "sqrt",
            "exp",
            "floor",
            "to_int",
            "to_float",
            "lower",
            "first",
            "last",
            "sum",
            "vec_zeros",
            "append",
            "vec_add",
            "vec_scale",
            "dot",
            "min",
            "max",
            "split",
            "pair",
            "get_at",
            "concat",
            "pairs_add",
        ] {
            let arity = builtin_arity(name).unwrap();
            let args = vec![Value::Int(1); arity];
            // Must not hit unreachable: either evaluates or reports a type
            // error, never "unknown builtin".
            match eval_builtin(name, &args) {
                Ok(_) => {}
                Err(SdgError::Eval(msg)) => {
                    assert!(!msg.contains("unknown"), "{name}: {msg}")
                }
                Err(_) => {}
            }
        }
        assert!(builtin_arity("nonexistent").is_none());
    }

    #[test]
    fn list_builtins() {
        let list = Value::List(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(ev("len", std::slice::from_ref(&list)), Value::Int(2));
        assert_eq!(ev("first", std::slice::from_ref(&list)), Value::Int(1));
        assert_eq!(ev("last", std::slice::from_ref(&list)), Value::Int(2));
        assert_eq!(ev("sum", std::slice::from_ref(&list)), Value::Float(3.0));
        assert_eq!(
            ev("append", &[list.clone(), Value::Int(3)]),
            Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(ev("get_at", &[list.clone(), Value::Int(1)]), Value::Int(2));
        assert_eq!(ev("get_at", &[list, Value::Int(9)]), Value::Null);
        assert_eq!(ev("first", &[Value::List(vec![])]), Value::Null);
    }

    #[test]
    fn vector_builtins() {
        let a = Value::List(vec![Value::Float(1.0), Value::Float(2.0)]);
        let b = Value::List(vec![Value::Float(10.0)]);
        assert_eq!(
            ev("vec_add", &[a.clone(), b.clone()]),
            Value::List(vec![Value::Float(11.0), Value::Float(2.0)])
        );
        assert_eq!(
            ev("vec_scale", &[a.clone(), Value::Float(2.0)]),
            Value::List(vec![Value::Float(2.0), Value::Float(4.0)])
        );
        assert_eq!(ev("dot", &[a.clone(), a.clone()]), Value::Float(5.0));
        assert_eq!(
            ev("vec_zeros", &[Value::Int(2)]),
            Value::List(vec![Value::Float(0.0), Value::Float(0.0)])
        );
        assert!(eval_builtin("vec_zeros", &[Value::Int(-1)]).is_err());
    }

    #[test]
    fn numeric_builtins() {
        assert_eq!(ev("abs", &[Value::Int(-4)]), Value::Int(4));
        assert_eq!(ev("abs", &[Value::Float(-1.5)]), Value::Float(1.5));
        assert_eq!(ev("sqrt", &[Value::Float(9.0)]), Value::Float(3.0));
        assert_eq!(ev("min", &[Value::Int(2), Value::Int(5)]), Value::Int(2));
        assert_eq!(
            ev("max", &[Value::Int(2), Value::Float(5.0)]),
            Value::Float(5.0)
        );
        assert_eq!(ev("floor", &[Value::Float(2.9)]), Value::Float(2.0));
        assert_eq!(ev("to_int", &[Value::Float(2.9)]), Value::Int(2));
        assert_eq!(ev("to_int", &[Value::str("42")]), Value::Int(42));
        assert!(eval_builtin("to_int", &[Value::str("4x")]).is_err());
        assert_eq!(ev("to_float", &[Value::Int(3)]), Value::Float(3.0));
    }

    #[test]
    fn string_builtins() {
        assert_eq!(ev("lower", &[Value::str("HeLLo")]), Value::str("hello"));
        assert_eq!(
            ev("split", &[Value::str("a b  c"), Value::str("")]),
            Value::List(vec![Value::str("a"), Value::str("b"), Value::str("c")])
        );
        assert_eq!(
            ev("split", &[Value::str("a,b"), Value::str(",")]),
            Value::List(vec![Value::str("a"), Value::str("b")])
        );
        assert_eq!(
            ev("concat", &[Value::str("ab"), Value::str("cd")]),
            Value::str("abcd")
        );
        assert_eq!(ev("len", &[Value::str("héllo")]), Value::Int(5));
    }

    #[test]
    fn pairs_add_merges_sparse_vectors() {
        let pairs = |items: &[(i64, f64)]| {
            Value::List(
                items
                    .iter()
                    .map(|&(k, v)| Value::List(vec![Value::Int(k), Value::Float(v)]))
                    .collect(),
            )
        };
        let a = pairs(&[(1, 2.0), (5, 1.0)]);
        let b = pairs(&[(5, 3.0), (2, 4.0)]);
        assert_eq!(
            ev("pairs_add", &[a.clone(), b]),
            pairs(&[(1, 2.0), (2, 4.0), (5, 4.0)])
        );
        assert_eq!(ev("pairs_add", &[a.clone(), Value::List(vec![])]), a);
        assert!(eval_builtin("pairs_add", &[Value::Int(1), Value::Int(2)]).is_err());
    }

    /// `pairs` as `(key, value bits)`, so `-0.0` and `0.0` differ.
    fn bits(pairs: &[(i64, f64)]) -> Vec<(i64, u64)> {
        pairs.iter().map(|&(k, v)| (k, v.to_bits())).collect()
    }

    fn list_form(pairs: &[(i64, f64)]) -> Value {
        Value::List(
            pairs
                .iter()
                .map(|&(k, v)| Value::List(vec![Value::Int(k), Value::Float(v)]))
                .collect(),
        )
    }

    /// A strictly ascending sparse vector with signed zeros among its values.
    fn ascending() -> impl Strategy<Value = Vec<(i64, f64)>> {
        let value = prop::sample::select(vec![-0.0, 0.0, 0.1, -2.25, 3.0, 1e300, -1e300]);
        prop::collection::vec((1i64..4, value), 0..12).prop_map(|cells| {
            let mut key = -3;
            cells
                .into_iter()
                .map(|(gap, v)| {
                    key += gap;
                    (key, v)
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn ascending_merge_is_bit_identical_to_the_map(a in ascending(), b in ascending()) {
            let want = bits(&pairs_add_unsorted(&a, &b));
            prop_assert_eq!(bits(&pairs_add(&a, &b)), want.clone());
            // Either layout on either side.
            let forms = |p: &[(i64, f64)]| [Value::Pairs(p.into()), list_form(p)];
            for x in forms(&a) {
                for y in forms(&b) {
                    let sum = eval_builtin("pairs_add", &[x.clone(), y]).unwrap();
                    prop_assert!(matches!(sum, Value::Pairs(_)));
                    prop_assert_eq!(bits(&sum.pairs().unwrap()), want.clone());
                }
            }
        }
    }

    #[test]
    fn unsorted_or_repeated_keys_take_the_map() {
        let cases = [
            (vec![(5, 1.0), (1, -0.0)], vec![(2, 4.0)]),
            (vec![(1, 1.0), (1, 2.0)], vec![(0, 0.5), (1, 0.25)]),
            (
                vec![(0, 1.0), (3, 2.0)],
                vec![(3, 1.0), (3, -0.0), (2, 1.0)],
            ),
        ];
        for (a, b) in cases {
            let sum = pairs_add(&a, &b);
            assert_eq!(bits(&sum), bits(&pairs_add_unsorted(&a, &b)));
            assert!(sum.windows(2).all(|w| w[0].0 < w[1].0), "{sum:?}");
        }
        assert_eq!(
            bits(&pairs_add(&[(5, 1.0), (1, -0.0)], &[(2, 4.0)])),
            bits(&[(1, 0.0), (2, 4.0), (5, 1.0)])
        );
        assert_eq!(
            bits(&pairs_add(&[(1, 1.0), (1, 2.0)], &[(0, 0.5), (1, 0.25)])),
            bits(&[(0, 0.5), (1, 3.25)])
        );
    }

    #[test]
    fn pairs_add_mixes_layouts_and_keeps_its_errors() {
        let a = Value::Pairs([(1, 2.0), (5, 1.0)].as_slice().into());
        let b = list_form(&[(5, 3.0), (2, 4.0)]);
        let want = list_form(&[(1, 2.0), (2, 4.0), (5, 4.0)]);
        assert_eq!(ev("pairs_add", &[a.clone(), b.clone()]), want);
        assert_eq!(ev("pairs_add", &[b, a.clone()]), want);
        assert_eq!(ev("pairs_add", &[Value::List(vec![]), a.clone()]), a);

        let err = |x: Value, y: Value| eval_builtin("pairs_add", &[x, y]).unwrap_err().to_string();
        let triple = Value::List(vec![Value::List(vec![Value::Int(1); 3])]);
        for (x, y) in [(triple.clone(), a.clone()), (a.clone(), triple)] {
            assert_eq!(
                err(x, y),
                "evaluation error: pairs_add expects lists of [key, value] pairs"
            );
        }
        let float_key = Value::List(vec![Value::List(vec![Value::Float(1.0); 2])]);
        assert_eq!(
            err(a.clone(), float_key),
            SdgError::type_mismatch("Int", "Float").to_string()
        );
        assert_eq!(
            err(Value::Int(1), a),
            SdgError::type_mismatch("List", "Int").to_string()
        );
    }

    #[test]
    fn list_builtins_read_pairs_as_their_list_form() {
        let cells = [(2, 0.5), (7, -1.0)];
        let pairs = Value::Pairs(cells.as_slice().into());
        let list = list_form(&cells);
        let empty = Value::Pairs(Arc::from([]));
        for (name, args) in [
            ("len", vec![pairs.clone()]),
            ("len", vec![empty.clone()]),
            ("first", vec![pairs.clone()]),
            ("first", vec![empty.clone()]),
            ("last", vec![pairs.clone()]),
            ("last", vec![empty.clone()]),
            ("sum", vec![pairs.clone()]),
            ("append", vec![pairs.clone(), Value::Int(3)]),
            ("get_at", vec![pairs.clone(), Value::Int(1)]),
            ("get_at", vec![pairs.clone(), Value::Int(2)]),
            ("get_at", vec![pairs.clone(), Value::Int(-1)]),
            ("get_at", vec![pairs.clone(), Value::str("x")]),
            ("concat", vec![pairs.clone(), Value::str("x")]),
            ("vec_add", vec![pairs.clone(), pairs.clone()]),
            ("dot", vec![pairs.clone(), pairs.clone()]),
        ] {
            let as_list: Vec<Value> = args
                .iter()
                .map(|v| match v {
                    Value::Pairs(p) => list_form(p),
                    v => v.clone(),
                })
                .collect();
            match (eval_builtin(name, &args), eval_builtin(name, &as_list)) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "{name}"),
                (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string(), "{name}"),
                (x, y) => panic!("{name}: {x:?} vs {y:?}"),
            }
        }
        assert_eq!(ev("last", &[pairs]), list.as_list().unwrap()[1]);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(eval_builtin("nope", &[]).is_err());
        assert!(eval_builtin("len", &[]).is_err());
        assert!(eval_builtin("len", &[Value::Int(1)]).is_err());
        assert!(eval_builtin("dot", &[Value::Int(1), Value::Int(2)]).is_err());
    }
}
