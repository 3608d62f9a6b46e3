//! The WHERE filter operator.

use super::Operator;
use crate::error::QueryError;
use crate::expr::{CExpr, EvalCtx};
use tweeql_model::{Record, SchemaRef};

/// Drops records whose predicate is not true (SQL: NULL drops).
pub struct FilterOp {
    predicate: CExpr,
    ctx: EvalCtx,
    schema: SchemaRef,
    label: String,
}

impl FilterOp {
    /// Build from a compiled predicate.
    pub fn new(predicate: CExpr, ctx: EvalCtx, schema: SchemaRef) -> FilterOp {
        FilterOp {
            predicate,
            ctx,
            schema,
            label: "filter".to_string(),
        }
    }

    /// Attach a descriptive label (shows in stats/EXPLAIN).
    pub fn with_label(mut self, label: impl Into<String>) -> FilterOp {
        self.label = label.into();
        self
    }
}

impl Operator for FilterOp {
    fn name(&self) -> &str {
        &self.label
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn on_batch(
        &mut self,
        recs: &mut Vec<Record>,
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        out.reserve(recs.len());
        for rec in recs.drain(..) {
            if self.predicate.eval_predicate(&rec, &mut self.ctx)? {
                out.push(rec);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::compile_into;
    use crate::parser::parse_expr;
    use crate::udf::Registry;
    use tweeql_model::{DataType, Schema, Timestamp, Value};

    fn setup(pred: &str) -> (FilterOp, SchemaRef) {
        let schema = Schema::shared(&[("x", DataType::Int), ("s", DataType::Str)]);
        let mut reg = Registry::empty();
        crate::expr::functions::register_builtins(&mut reg);
        let ast = parse_expr(pred).unwrap();
        let mut ctx = EvalCtx::default();
        let c = compile_into(&ast, &schema, &reg, &mut ctx).unwrap();
        (FilterOp::new(c, ctx, schema.clone()), schema)
    }

    fn rec(schema: &SchemaRef, x: Value, s: &str) -> Record {
        Record::new(schema.clone(), vec![x, Value::from(s)], Timestamp::ZERO).unwrap()
    }

    #[test]
    fn passes_and_drops() {
        let (mut f, schema) = setup("x > 5");
        let mut out = Vec::new();
        f.on_batch(&mut vec![rec(&schema, Value::Int(10), "a")], &mut out)
            .unwrap();
        f.on_batch(&mut vec![rec(&schema, Value::Int(3), "b")], &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("s").unwrap(), &Value::from("a"));
    }

    #[test]
    fn null_predicate_drops() {
        let (mut f, schema) = setup("x > 5");
        let mut out = Vec::new();
        f.on_batch(&mut vec![rec(&schema, Value::Null, "a")], &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn contains_filter() {
        let (mut f, schema) = setup("s contains 'obama'");
        let mut out = Vec::new();
        f.on_batch(
            &mut vec![rec(&schema, Value::Int(0), "OBAMA rally")],
            &mut out,
        )
        .unwrap();
        f.on_batch(&mut vec![rec(&schema, Value::Int(0), "other")], &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn label() {
        let (f, _) = setup("x > 0");
        assert_eq!(f.name(), "filter");
        let (f2, _) = setup("x > 0");
        assert_eq!(f2.with_label("where").name(), "where");
    }
}
