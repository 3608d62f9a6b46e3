//! LIMIT: stop after N records and signal the engine to stop pulling.

use super::Operator;
use crate::error::QueryError;
use tweeql_model::{Record, SchemaRef};

/// Emits the first `n` records, then reports `done`.
pub struct LimitOp {
    remaining: u64,
    schema: SchemaRef,
}

impl LimitOp {
    /// Limit to `n` records.
    pub fn new(n: u64, schema: SchemaRef) -> LimitOp {
        LimitOp {
            remaining: n,
            schema,
        }
    }
}

impl Operator for LimitOp {
    fn name(&self) -> &str {
        "limit"
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn on_batch(
        &mut self,
        recs: &mut Vec<Record>,
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        let taken = self.remaining.min(recs.len() as u64);
        self.remaining -= taken;
        out.extend(recs.drain(..).take(taken as usize));
        Ok(())
    }

    fn done(&self) -> bool {
        self.remaining == 0
    }

    fn state_digest(&self, d: &mut tweeql_wal::Digest) {
        d.write_u64(self.remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweeql_model::{DataType, Schema, Timestamp, Value};

    #[test]
    fn caps_output_and_reports_done() {
        let schema = Schema::shared(&[("x", DataType::Int)]);
        let mut l = LimitOp::new(2, schema.clone());
        let mut out = Vec::new();
        for i in 0..5 {
            let rec = Record::new(schema.clone(), vec![Value::Int(i)], Timestamp::ZERO).unwrap();
            l.on_batch(&mut vec![rec], &mut out).unwrap();
        }
        assert_eq!(out.len(), 2);
        assert!(l.done());
    }

    #[test]
    fn limit_zero_is_immediately_done() {
        let schema = Schema::shared(&[("x", DataType::Int)]);
        let l = LimitOp::new(0, schema);
        assert!(l.done());
    }
}
