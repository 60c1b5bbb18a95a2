//! Correctness checks: an in-memory model of a generated log, and the rules
//! every serve response must obey.

use scoop::types::{DurableRecord, QueryPredicate, ServeRequest, ServeResponse};

/// The model a store's answers are compared with: the generated records in
/// canonical order, searched by binary search.
pub struct LogModel {
    records: Vec<DurableRecord>,
}

impl LogModel {
    /// A model over `records` (sorted here into canonical order).
    pub fn new(mut records: Vec<DurableRecord>) -> Self {
        records.sort_unstable();
        LogModel { records }
    }

    /// Records in the model.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record at canonical position `i`.
    pub fn record(&self, i: usize) -> &DurableRecord {
        &self.records[i]
    }

    /// `(earliest, latest)` timestamp; `(0, 0)` when empty.
    pub fn time_span(&self) -> (u64, u64) {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => (a.time_ms, b.time_ms),
            _ => (0, 0),
        }
    }

    /// Appends records that sort after everything already present.
    pub fn extend_sorted(&mut self, tail: &[DurableRecord]) {
        debug_assert!(self.records.last() <= tail.first());
        self.records.extend_from_slice(tail);
    }

    /// Every record with `t0 <= time <= t1`, in canonical order.
    pub fn range(&self, t0: u64, t1: u64) -> &[DurableRecord] {
        let lo = self.records.partition_point(|r| r.time_ms < t0);
        let hi = self.records.partition_point(|r| r.time_ms <= t1);
        &self.records[lo..hi.max(lo)]
    }

    /// Every record with exactly time `t`.
    pub fn point(&self, t: u64) -> &[DurableRecord] {
        self.range(t, t)
    }

    /// How many records `pred` matches.
    pub fn count_matching(&self, pred: &QueryPredicate) -> usize {
        self.range(pred.time_lo_ms, pred.time_hi_ms)
            .iter()
            .filter(|r| pred.matches(r.value, r.time_ms))
            .count()
    }
}

/// Checks one serve response against its request: the id is echoed, the
/// request was answered (an `Overloaded` refusal counts as failed), every
/// row lies inside the predicate, and rows are in canonical order. Returns
/// the row count.
pub fn check_response(req: &ServeRequest, resp: &ServeResponse) -> Result<usize, String> {
    if resp.id() != req.id {
        return Err(format!(
            "response id {} answers request {}",
            resp.id(),
            req.id
        ));
    }
    let rows = match resp {
        ServeResponse::Rows(rows) => &rows.rows,
        ServeResponse::Overloaded(o) => return Err(format!("refused: {o}")),
    };
    let pred = req.predicate();
    if let Some(bad) = rows.iter().find(|r| !pred.matches(r.value, r.time_ms)) {
        return Err(format!(
            "request {}: row {bad:?} is outside {pred:?}",
            req.id
        ));
    }
    if !rows.windows(2).all(|w| w[0] <= w[1]) {
        return Err(format!(
            "request {}: rows are not in canonical order",
            req.id
        ));
    }
    Ok(rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop::types::{NodeId, Overloaded, ServeRows, SimTime, ValueRange};

    fn rec(time_ms: u64, node: u16, value: i32) -> DurableRecord {
        DurableRecord {
            time_ms,
            node: NodeId(node),
            attribute: 0,
            value,
        }
    }

    fn model() -> LogModel {
        LogModel::new(vec![
            rec(30, 1, 7),
            rec(10, 1, 5),
            rec(20, 2, 6),
            rec(20, 1, 9),
            rec(40, 3, 1),
        ])
    }

    #[test]
    fn model_answers_points_and_ranges_in_canonical_order() {
        let m = model();
        assert_eq!(m.point(20), &[rec(20, 1, 9), rec(20, 2, 6)]);
        assert!(m.point(25).is_empty());
        assert_eq!(m.range(15, 30).len(), 3);
        assert_eq!(m.range(0, 5).len(), 0);
        assert_eq!(m.range(50, 40).len(), 0, "inverted range is empty");
        assert_eq!(m.time_span(), (10, 40));
        let pred = QueryPredicate {
            value_lo: 6,
            value_hi: 9,
            time_lo_ms: 0,
            time_hi_ms: 30,
        };
        assert_eq!(m.count_matching(&pred), 3);
    }

    #[test]
    fn a_planted_wrong_store_answer_fails_the_comparison() {
        let m = model();
        let right = m.point(20).to_vec();
        assert_eq!(m.point(20), right.as_slice());
        let mut wrong_value = right.clone();
        wrong_value[0].value += 1;
        assert_ne!(m.point(20), wrong_value.as_slice());
        let mut missing_row = right.clone();
        missing_row.pop();
        assert_ne!(m.point(20), missing_row.as_slice());
        let mut wrong_order = right;
        wrong_order.reverse();
        assert_ne!(m.point(20), wrong_order.as_slice());
    }

    fn request() -> ServeRequest {
        ServeRequest {
            id: 9,
            values: ValueRange::new(5, 7),
            time_lo: SimTime::from_millis(10),
            time_hi: SimTime::from_millis(30),
        }
    }

    fn rows(id: u64, rows: Vec<DurableRecord>) -> ServeResponse {
        ServeResponse::Rows(ServeRows { id, rows })
    }

    #[test]
    fn responses_must_echo_the_id_stay_inside_the_predicate_and_be_sorted() {
        let req = request();
        assert_eq!(
            check_response(&req, &rows(9, vec![rec(10, 1, 5), rec(30, 1, 7)])),
            Ok(2)
        );
        assert_eq!(check_response(&req, &rows(9, vec![])), Ok(0));
        assert!(check_response(&req, &rows(8, vec![])).is_err(), "wrong id");
        assert!(
            check_response(&req, &rows(9, vec![rec(20, 1, 9)])).is_err(),
            "value outside"
        );
        assert!(
            check_response(&req, &rows(9, vec![rec(40, 1, 6)])).is_err(),
            "time outside"
        );
        assert!(
            check_response(&req, &rows(9, vec![rec(30, 1, 7), rec(10, 1, 5)])).is_err(),
            "unsorted"
        );
        let refused = ServeResponse::Overloaded(Overloaded {
            id: 9,
            queued: 1024,
            capacity: 1024,
        });
        assert!(
            check_response(&req, &refused).is_err(),
            "a refusal counts as failed"
        );
    }
}
