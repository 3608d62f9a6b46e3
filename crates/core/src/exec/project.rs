//! The SELECT projection operator.

use super::Operator;
use crate::error::QueryError;
use crate::expr::{CExpr, EvalCtx};
use tweeql_model::{Record, SchemaRef};

/// Evaluates one compiled expression per output column.
pub struct ProjectOp {
    exprs: Vec<CExpr>,
    ctx: EvalCtx,
    schema: SchemaRef,
}

impl ProjectOp {
    /// Build from compiled expressions and the output schema (one field
    /// per expression, same order).
    pub fn new(exprs: Vec<CExpr>, ctx: EvalCtx, schema: SchemaRef) -> ProjectOp {
        debug_assert_eq!(exprs.len(), schema.len());
        ProjectOp { exprs, ctx, schema }
    }
}

impl Operator for ProjectOp {
    fn name(&self) -> &str {
        "project"
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
            let mut values = Vec::with_capacity(self.exprs.len());
            for e in &self.exprs {
                values.push(e.eval(&rec, &mut self.ctx)?);
            }
            out.push(rec.with_shape(self.schema.clone(), values));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{compile_into, EvalCtx};
    use crate::parser::parse_expr;
    use crate::udf::Registry;
    use tweeql_model::{DataType, Schema, Timestamp, Value};

    #[test]
    fn projects_expressions_and_keeps_timestamp() {
        let in_schema = Schema::shared(&[("x", DataType::Int), ("s", DataType::Str)]);
        let out_schema = Schema::shared(&[("double_x", DataType::Int), ("u", DataType::Str)]);
        let mut reg = Registry::empty();
        crate::expr::functions::register_builtins(&mut reg);
        let mut ctx = EvalCtx::default();
        let exprs = vec![
            compile_into(&parse_expr("x * 2").unwrap(), &in_schema, &reg, &mut ctx).unwrap(),
            compile_into(&parse_expr("upper(s)").unwrap(), &in_schema, &reg, &mut ctx).unwrap(),
        ];
        let mut p = ProjectOp::new(exprs, ctx, out_schema);
        let rec = Record::new(
            in_schema,
            vec![Value::Int(21), Value::from("ab")],
            Timestamp::from_secs(9),
        )
        .unwrap();
        let mut out = Vec::new();
        p.on_batch(&mut vec![rec], &mut out).unwrap();
        assert_eq!(out[0].get("double_x").unwrap(), &Value::Int(42));
        assert_eq!(out[0].get("u").unwrap(), &Value::from("AB"));
        assert_eq!(out[0].timestamp(), Timestamp::from_secs(9));
    }
}
