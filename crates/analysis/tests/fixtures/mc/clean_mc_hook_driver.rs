//! The clean twin of `bad_mc_hidden_hook_collective.rs`: the hook's impl
//! reaches the same hidden all-reduce on every rank, so the driver's
//! schedule and the hook's own schedule are both symmetric.

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
        self.aggregate(ctx)?;
        Ok(())
    }
}

impl Qd2 {
    fn aggregate(&mut self, ctx: &mut WorkerCtx) -> Result<(), CommError> {
        ctx.comm.all_reduce_f64(&mut self.buf)
    }
}
