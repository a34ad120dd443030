//@ expect: mc-collective-divergence
//! A boosting driver calls a policy hook on every rank, but the hook's
//! impl hides a collective behind a method call made on rank 0 only.
//! Method calls named like a simulated function count as calls, so the
//! hidden all-reduce is a rendezvous that the other ranks never reach.

//@ file: crates/quadrants/src/driver.rs
pub(crate) fn grow<P: DataPolicy>(ctx: &mut WorkerCtx, policy: &mut P, n_trees: usize) -> Result<(), CommError> {
    for t in 0..n_trees {
        ctx.fault_point(t, 0);
        policy.histograms(ctx)?;
    }
    Ok(())
}

//@ file: crates/quadrants/src/qd2.rs
impl DataPolicy for Qd2 {
    fn histograms(&mut self, ctx: &mut WorkerCtx) -> Result<(), CommError> {
        if ctx.comm.rank() == 0 {
            self.aggregate(ctx)?;
        }
        Ok(())
    }
}

impl Qd2 {
    fn aggregate(&mut self, ctx: &mut WorkerCtx) -> Result<(), CommError> {
        ctx.comm.all_reduce_f64(&mut self.buf)
    }
}
