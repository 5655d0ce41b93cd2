//! Tuples: fixed-arity sequences of values.

use crate::value::Value;
use std::fmt;
use std::ops::Index;

/// A database tuple. Stored as a boxed slice: two words on the stack, no
/// spare capacity (tuples are immutable once inserted).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Tuple(values.into_iter().collect())
    }

    /// Arity of the tuple.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Value at a position.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// The underlying value slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The values, by value (a relation moves them into its row arena).
    pub fn into_values(self) -> std::vec::IntoIter<Value> {
        self.0.into_vec().into_iter()
    }

    /// Iterate over the values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(vs: [Value; N]) -> Self {
        Tuple::new(vs)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(vs: Vec<Value>) -> Self {
        Tuple(vs.into_boxed_slice())
    }
}

/// Shorthand for building a [`Tuple`] out of anything convertible to
/// [`Value`]: `tuple!["a1", "b1"]`, `tuple![1, "x"]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let t = tuple![1, "x"];
        assert_eq!(t.arity(), 2);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t.get(1), &Value::text("x"));
        assert_eq!(t.to_string(), "(1, x)");
        assert_eq!(format!("{t:?}"), "(1, 'x')");
    }

    #[test]
    fn equality_and_hash() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(tuple![1, 2]);
        assert!(s.contains(&tuple![1, 2]));
        assert!(!s.contains(&tuple![2, 1]));
    }
}
