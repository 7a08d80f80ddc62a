//! Value-level operator semantics shared by every interpreter.
//!
//! Both the bytecode engine in this crate and the sequential reference
//! interpreter (`f90d-core::reference`) evaluate scalar operations
//! through these functions, so they cannot drift apart on promotion,
//! division, or intrinsic edge cases.

use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::Value;

/// Operator evaluation error (runtime faults such as division by zero).
pub type OpResult = Result<Value, String>;

/// Apply a binary operator with Fortran promotion rules.
pub fn eval_bin(op: BinOp, a: Value, b: Value) -> OpResult {
    use BinOp::*;
    if op.is_logical() {
        let (x, y) = (a.as_bool(), b.as_bool());
        return Ok(Value::Bool(match op {
            And => x && y,
            Or => x || y,
            _ => unreachable!(),
        }));
    }
    if op.is_comparison() {
        // Numeric comparison with promotion.
        let (x, y) = (a.as_real(), b.as_real());
        return Ok(Value::Bool(match op {
            Eq => x == y,
            Ne => x != y,
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            Ge => x >= y,
            _ => unreachable!(),
        }));
    }
    // Arithmetic with Fortran promotion.
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => {
                if y == 0 {
                    return Err("integer division by zero".into());
                }
                x / y
            }
            Pow => {
                if y < 0 {
                    return Err("negative integer exponent".into());
                }
                x.pow(y.min(62) as u32)
            }
            _ => unreachable!(),
        })),
        (Value::Complex(xr, xi), y) => {
            let (yr, yi) = match y {
                Value::Complex(r, i) => (r, i),
                other => (other.as_real(), 0.0),
            };
            complex_bin(op, (xr, xi), (yr, yi))
        }
        (x, Value::Complex(yr, yi)) => complex_bin(op, (x.as_real(), 0.0), (yr, yi)),
        (x, y) => {
            let (x, y) = (x.as_real(), y.as_real());
            Ok(Value::Real(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Pow => x.powf(y),
                _ => unreachable!(),
            }))
        }
    }
}

fn complex_bin(op: BinOp, (ar, ai): (f64, f64), (br, bi): (f64, f64)) -> OpResult {
    use BinOp::*;
    let v = match op {
        Add => (ar + br, ai + bi),
        Sub => (ar - br, ai - bi),
        Mul => (ar * br - ai * bi, ar * bi + ai * br),
        Div => {
            let d = br * br + bi * bi;
            ((ar * br + ai * bi) / d, (ai * br - ar * bi) / d)
        }
        _ => return Err("unsupported complex operation".into()),
    };
    Ok(Value::Complex(v.0, v.1))
}

/// Apply a unary operator.
pub fn eval_un(op: UnOp, v: Value) -> OpResult {
    Ok(match op {
        UnOp::Neg => match v {
            Value::Int(x) => Value::Int(-x),
            Value::Real(x) => Value::Real(-x),
            Value::Complex(r, i) => Value::Complex(-r, -i),
            Value::Bool(_) => return Err("negating a LOGICAL".into()),
        },
        UnOp::Not => Value::Bool(!v.as_bool()),
    })
}

/// The elemental intrinsics, resolved at lowering time so the bytecode
/// engine never string-matches in its hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrin {
    /// `ABS`
    Abs,
    /// `SQRT`
    Sqrt,
    /// `EXP`
    Exp,
    /// `LOG`
    Log,
    /// `SIN`
    Sin,
    /// `COS`
    Cos,
    /// `TAN`
    Tan,
    /// `MOD`
    Mod,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `REAL` / `FLOAT` / `DBLE`
    ToReal,
    /// `INT`
    ToInt,
    /// `NINT`
    Nint,
    /// `SIGN`
    Sign,
}

impl Intrin {
    /// Resolve an intrinsic by its Fortran name.
    pub fn from_name(name: &str) -> Option<Intrin> {
        Some(match name {
            "ABS" => Intrin::Abs,
            "SQRT" => Intrin::Sqrt,
            "EXP" => Intrin::Exp,
            "LOG" => Intrin::Log,
            "SIN" => Intrin::Sin,
            "COS" => Intrin::Cos,
            "TAN" => Intrin::Tan,
            "MOD" => Intrin::Mod,
            "MIN" => Intrin::Min,
            "MAX" => Intrin::Max,
            "REAL" | "FLOAT" | "DBLE" => Intrin::ToReal,
            "INT" => Intrin::ToInt,
            "NINT" => Intrin::Nint,
            "SIGN" => Intrin::Sign,
            _ => return None,
        })
    }
}

/// Apply a resolved elemental intrinsic.
pub fn eval_intrin(f: Intrin, args: &[Value]) -> OpResult {
    let f1 = |f: fn(f64) -> f64| -> OpResult { Ok(Value::Real(f(args[0].as_real()))) };
    match f {
        Intrin::Abs => match args[0] {
            Value::Int(x) => Ok(Value::Int(x.abs())),
            other => Ok(Value::Real(other.as_real().abs())),
        },
        Intrin::Sqrt => f1(f64::sqrt),
        Intrin::Exp => f1(f64::exp),
        Intrin::Log => f1(f64::ln),
        Intrin::Sin => f1(f64::sin),
        Intrin::Cos => f1(f64::cos),
        Intrin::Tan => f1(f64::tan),
        Intrin::Mod => match (args[0], args[1]) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a % b)),
            (a, b) => Ok(Value::Real(a.as_real() % b.as_real())),
        },
        Intrin::Min => Ok(fold_minmax(args, true)),
        Intrin::Max => Ok(fold_minmax(args, false)),
        Intrin::ToReal => Ok(Value::Real(args[0].as_real())),
        Intrin::ToInt => Ok(Value::Int(args[0].as_int())),
        Intrin::Nint => Ok(Value::Int(args[0].as_real().round() as i64)),
        Intrin::Sign => {
            let (a, b) = (args[0].as_real(), args[1].as_real());
            Ok(Value::Real(if b >= 0.0 { a.abs() } else { -a.abs() }))
        }
    }
}

/// Apply an elemental intrinsic by name (reference-interpreter entry
/// point).
pub fn eval_elemental(name: &str, args: &[Value]) -> OpResult {
    match Intrin::from_name(name) {
        Some(f) => eval_intrin(f, args),
        None => Err(format!("unknown elemental intrinsic `{name}`")),
    }
}

fn fold_minmax(args: &[Value], min: bool) -> Value {
    let all_int = args.iter().all(|v| matches!(v, Value::Int(_)));
    if all_int {
        let it = args.iter().map(|v| v.as_int());
        Value::Int(if min {
            it.min().unwrap()
        } else {
            it.max().unwrap()
        })
    } else {
        let it = args.iter().map(|v| v.as_real());
        Value::Real(if min {
            it.fold(f64::INFINITY, f64::min)
        } else {
            it.fold(f64::NEG_INFINITY, f64::max)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_promotion_and_div() {
        assert_eq!(
            eval_bin(BinOp::Add, Value::Int(2), Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_bin(BinOp::Div, Value::Int(7), Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert!(eval_bin(BinOp::Div, Value::Int(1), Value::Int(0)).is_err());
        assert_eq!(
            eval_bin(BinOp::Mul, Value::Int(2), Value::Real(1.5)).unwrap(),
            Value::Real(3.0)
        );
    }

    #[test]
    fn intrinsics_resolve() {
        assert_eq!(Intrin::from_name("DBLE"), Some(Intrin::ToReal));
        assert_eq!(Intrin::from_name("NOPE"), None);
        assert_eq!(
            eval_intrin(Intrin::Max, &[Value::Int(2), Value::Int(5)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_intrin(Intrin::Min, &[Value::Real(2.0), Value::Int(5)]).unwrap(),
            Value::Real(2.0)
        );
    }
}
