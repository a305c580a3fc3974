//! Cross-session modular-exponentiation batching.
//!
//! A single WaveKey agreement needs hundreds of group exponentiations,
//! and a fleet of concurrent sessions needs the *same kinds* over the
//! *same group*. [`ModexpBatch`] is the work-gathering layer: callers —
//! the OT rounds in [`crate::rounds`], a `SessionManager` spawning a
//! wave of sessions — enqueue jobs and get opaque [`JobId`]s back;
//! [`ModexpBatch::execute`] then groups the jobs by `(modulus,
//! base-class)`, packs each class into quads for the 4-way CIOS lanes
//! ([`crate::limb4`]), and fans the quads out over worker threads (`wavekey_par`).
//!
//! Job classes:
//!
//! * fixed-base (`g^x`): evaluated through the group's shared comb
//!   table, four exponents per table walk;
//! * general (`base^x`): evaluated through the 4-way fixed-window
//!   Montgomery kernel;
//! * dependent multiply (`result(dep)·g^x`): the Straus/interleaved
//!   shape `n^a·g^b` — the `g^b` half rides the fixed-base class and the
//!   final multiplication is a single Montgomery multiply, so the second
//!   *general* exponentiation the naive form would need disappears.
//!
//! Every job is independent; execution order never leaks into results.
//! [`ModexpBatch::execute_scalar`] evaluates the identical job list
//! through the scalar one-at-a-time group calls and is the pinned
//! reference: `execute` must match it bit-for-bit.

use crate::bigint::Ubig;
use crate::group::DhGroup;

/// Handle to one enqueued job, redeemable against [`BatchResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobId(usize);

#[derive(Debug, Clone)]
enum JobKind {
    /// `g^exp` through the fixed-base comb table.
    PowG { exp: Ubig },
    /// `base^exp` through the general 4-way kernel.
    Pow { base: Ubig, exp: Ubig },
    /// `result(dep) · g^g_exp`: the `n^a·g^b` shape. The `g^g_exp` half
    /// is batched with the fixed-base class; the multiply happens after
    /// both classes resolve.
    MulPowG { dep: usize, g_exp: Ubig },
}

/// A gathered batch of modexp jobs over one or more groups.
pub struct ModexpBatch<'g> {
    jobs: Vec<(&'g DhGroup, JobKind)>,
}

/// Results of an executed batch, indexed by [`JobId`].
pub struct BatchResults {
    out: Vec<Ubig>,
}

impl BatchResults {
    /// The result of job `id`.
    pub fn get(&self, id: JobId) -> &Ubig {
        &self.out[id.0]
    }

    /// All results in enqueue order.
    pub fn into_vec(self) -> Vec<Ubig> {
        self.out
    }

    /// Number of results.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// `true` when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

impl<'g> Default for ModexpBatch<'g> {
    fn default() -> Self {
        ModexpBatch::new()
    }
}

impl<'g> ModexpBatch<'g> {
    /// An empty batch.
    pub fn new() -> ModexpBatch<'g> {
        ModexpBatch { jobs: Vec::new() }
    }

    /// Number of jobs enqueued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when nothing is enqueued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    fn push(&mut self, group: &'g DhGroup, kind: JobKind) -> JobId {
        self.jobs.push((group, kind));
        JobId(self.jobs.len() - 1)
    }

    /// Enqueues `g^exp` (fixed-base class).
    pub fn push_pow_g(&mut self, group: &'g DhGroup, exp: Ubig) -> JobId {
        self.push(group, JobKind::PowG { exp })
    }

    /// Enqueues `base^exp` (general class).
    pub fn push_pow(&mut self, group: &'g DhGroup, base: Ubig, exp: Ubig) -> JobId {
        self.push(group, JobKind::Pow { base, exp })
    }

    /// Enqueues `result(dep) · g^g_exp`, the `n^a·g^b` shape (a negated
    /// `b` comes from [`DhGroup::neg_exponent`]). `dep` must belong to
    /// the same group.
    pub fn push_mul_pow_g(&mut self, group: &'g DhGroup, dep: JobId, g_exp: Ubig) -> JobId {
        debug_assert!(
            group.same_params(self.jobs[dep.0].0),
            "dependent multiply across different groups"
        );
        self.push(group, JobKind::MulPowG { dep: dep.0, g_exp })
    }

    /// The fixed-base exponent of a job.
    fn fixed_exp(kind: &JobKind) -> &Ubig {
        match kind {
            JobKind::PowG { exp } => exp,
            JobKind::MulPowG { g_exp, .. } => g_exp,
            JobKind::Pow { .. } => unreachable!("general job in fixed-base class"),
        }
    }

    /// Executes every job through the batched 4-way kernels and returns
    /// the results. Jobs are grouped by deployment group, packed into
    /// quads per class (ragged tails padded with dummy lanes that are
    /// discarded), and swept in parallel; dependent multiplies resolve
    /// last. Results are bit-identical to [`ModexpBatch::execute_scalar`]
    /// and independent of thread count.
    pub fn execute(self) -> BatchResults {
        let jobs = self.jobs;
        let total = jobs.len();
        let mut out: Vec<Ubig> = vec![Ubig::zero(); total];
        // g^g_exp halves of dependent multiplies, resolved by job index.
        let mut g_half: Vec<Option<Ubig>> = vec![None; total];
        // Partition job indices by group identity and class.
        let mut parts: Vec<(&DhGroup, Vec<usize>, Vec<usize>)> = Vec::new();
        for (idx, (group, kind)) in jobs.iter().enumerate() {
            let part = match parts.iter_mut().find(|(g, _, _)| g.same_params(group)) {
                Some(p) => p,
                None => {
                    parts.push((group, Vec::new(), Vec::new()));
                    parts.last_mut().unwrap()
                }
            };
            match kind {
                JobKind::Pow { .. } => part.2.push(idx),
                _ => part.1.push(idx),
            }
        }
        for (group, fixed, general) in &parts {
            // Fixed-base class: four comb walks per kernel pass.
            let quads = fixed.len().div_ceil(4);
            let work = 4 * quads * group.modexp_work();
            let results = wavekey_par::map(quads, work, |q| {
                let lanes: [Ubig; 4] = std::array::from_fn(|l| match fixed.get(q * 4 + l) {
                    Some(&i) => Self::fixed_exp(&jobs[i].1).clone(),
                    None => Ubig::zero(),
                });
                group.pow_g_x4(&lanes)
            });
            for (pos, &idx) in fixed.iter().enumerate() {
                let r = results[pos / 4][pos % 4].clone();
                if matches!(jobs[idx].1, JobKind::MulPowG { .. }) {
                    g_half[idx] = Some(r);
                } else {
                    out[idx] = r;
                }
            }
            // General class: four fixed-window exponentiations per pass.
            let quads = general.len().div_ceil(4);
            let work = 4 * quads * group.modexp_work();
            let results = wavekey_par::map(quads, work, |q| {
                let bases: [Ubig; 4] = std::array::from_fn(|l| {
                    match general.get(q * 4 + l).map(|&i| &jobs[i].1) {
                        Some(JobKind::Pow { base, .. }) => base.clone(),
                        _ => Ubig::one(),
                    }
                });
                let exps: [Ubig; 4] = std::array::from_fn(|l| {
                    match general.get(q * 4 + l).map(|&i| &jobs[i].1) {
                        Some(JobKind::Pow { exp, .. }) => exp.clone(),
                        _ => Ubig::zero(),
                    }
                });
                group.pow_x4(&bases, &exps)
            });
            for (pos, &idx) in general.iter().enumerate() {
                out[idx] = results[pos / 4][pos % 4].clone();
            }
        }
        // Dependent multiplies, in enqueue order: a JobId handed to
        // push_mul_pow_g always precedes it, so deps are resolved first.
        for idx in 0..total {
            if let (group, JobKind::MulPowG { dep, .. }) = &jobs[idx] {
                let g = g_half[idx].take().expect("fixed-base half resolved");
                let r = group.mul(&out[*dep], &g);
                out[idx] = r;
            }
        }
        BatchResults { out }
    }

    /// Pinned reference: evaluates the identical job list through the
    /// scalar one-at-a-time group operations.
    pub fn execute_scalar(self) -> BatchResults {
        let mut out: Vec<Ubig> = Vec::with_capacity(self.jobs.len());
        for (group, kind) in &self.jobs {
            let r = match kind {
                JobKind::PowG { exp } => group.pow_g(exp),
                JobKind::Pow { base, exp } => group.pow(base, exp),
                JobKind::MulPowG { dep, g_exp } => group.mul(&out[*dep], &group.pow_g(g_exp)),
            };
            out.push(r);
        }
        BatchResults { out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fill_batch<'g>(
        groups: &[&'g DhGroup],
        jobs: usize,
        seed: u64,
    ) -> (ModexpBatch<'g>, ModexpBatch<'g>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fast = ModexpBatch::new();
        let mut slow = ModexpBatch::new();
        let mut last_pow: Option<JobId> = None;
        for i in 0..jobs {
            let g = groups[i % groups.len()];
            let x = g.random_exponent(&mut rng);
            match rng.gen_range(0..4) {
                0 => {
                    fast.push_pow_g(g, x.clone());
                    slow.push_pow_g(g, x);
                }
                1 => {
                    // g^(−x): a fixed-base exponent just below the order.
                    let neg = g.neg_exponent(&x);
                    fast.push_pow_g(g, neg.clone());
                    slow.push_pow_g(g, neg);
                }
                2 => {
                    let base = Ubig::random_below(g.modulus(), &mut rng);
                    let id = fast.push_pow(g, base.clone(), x.clone());
                    slow.push_pow(g, base, x);
                    // Remember a same-group dep for a later MulPowG.
                    if groups.len() == 1 {
                        last_pow = Some(id);
                    }
                }
                _ => match last_pow {
                    Some(dep) => {
                        fast.push_mul_pow_g(g, dep, x.clone());
                        slow.push_mul_pow_g(g, dep, x);
                    }
                    None => {
                        fast.push_pow_g(g, x.clone());
                        slow.push_pow_g(g, x);
                    }
                },
            }
        }
        (fast, slow)
    }

    #[test]
    fn batched_matches_scalar_including_ragged_tails() {
        let tiny = DhGroup::tiny_test_group();
        // 1, 4±ragged, and larger-than-quad counts.
        for jobs in [1usize, 3, 4, 5, 7, 8, 13] {
            let (fast, slow) = fill_batch(&[&tiny], jobs, jobs as u64);
            let a = fast.execute().into_vec();
            let b = slow.execute_scalar().into_vec();
            assert_eq!(a, b, "jobs {jobs}");
        }
    }

    #[test]
    fn mixed_groups_in_one_batch() {
        let tiny = DhGroup::tiny_test_group();
        let other = DhGroup::tiny_test_group_shared();
        let third = crate::group::PrecompCache::global()
            .get(&Ubig::from_hex("ffffffffffffffffffffffffffffff61"), &Ubig::from_u64(3));
        // Interleave jobs across three groups (two share parameters and
        // must land in one partition; the third has a 128-bit modulus).
        let groups: Vec<&DhGroup> = vec![&tiny, other.as_ref(), third.as_ref()];
        let (fast, slow) = fill_batch(&groups, 11, 99);
        assert_eq!(fast.execute().into_vec(), slow.execute_scalar().into_vec());
    }

    #[test]
    fn fleet_group_batch_matches_scalar_montgomery_route() {
        // The executor dispatches WAVEKEY-1024 quads onto the Crandall
        // fold kernels while execute_scalar stays on generic Montgomery;
        // mixing it with a Montgomery-only group in one batch must still
        // match job-for-job.
        let wk = DhGroup::wavekey_1024();
        let tiny = DhGroup::tiny_test_group();
        let (fast, slow) = fill_batch(&[&wk, &tiny], 10, 4242);
        assert_eq!(fast.execute().into_vec(), slow.execute_scalar().into_vec());
    }

    #[test]
    fn mul_pow_g_realizes_interleaved_multiexp() {
        let g = DhGroup::tiny_test_group();
        let mut rng = StdRng::seed_from_u64(7);
        let base = Ubig::random_below(g.modulus(), &mut rng);
        let a = g.random_exponent(&mut rng);
        let b = g.random_exponent(&mut rng);
        let mut batch = ModexpBatch::new();
        let na = batch.push_pow(&g, base.clone(), a.clone());
        let id = batch.push_mul_pow_g(&g, na, b.clone());
        let res = batch.execute();
        // result = base^a · g^b, the Straus shape.
        let expect = g.mul(&g.pow(&base, &a), &g.pow_g(&b));
        assert_eq!(res.get(id), &expect);
    }

    #[test]
    fn inv_pow_g_jobs_match_group_inv_including_edges() {
        // g^(−x) enqueued the way the OT sender does it — the negated
        // exponent through PowG, and through MulPowG behind a general job.
        let g = DhGroup::tiny_test_group();
        let order = g.order().clone();
        // Edge exponents around the order: 0, 1, order−1, order, order+1,
        // 2·order (reduces to 0 → g^order = 1 path), and a wide value.
        let edges = [
            Ubig::zero(),
            Ubig::one(),
            order.sub(&Ubig::one()),
            order.clone(),
            order.add(&Ubig::one()),
            order.add(&order),
            order.mul(&order).add(&Ubig::from_u64(5)),
        ];
        let base = Ubig::from_u64(0xBA5E);
        let mut fast = ModexpBatch::new();
        let mut ids = Vec::new();
        for e in &edges {
            let plain = fast.push_pow_g(&g, g.neg_exponent(e));
            let dep = fast.push_pow(&g, base.clone(), e.clone());
            ids.push((plain, fast.push_mul_pow_g(&g, dep, g.neg_exponent(e))));
        }
        let res = fast.execute();
        for ((plain, mul), e) in ids.iter().zip(&edges) {
            assert_eq!(res.get(*plain), &g.inv_pow_g(e), "exp {e}");
            let expect = g.mul(&g.pow(&base, e), &g.inv_pow_g(e));
            assert_eq!(res.get(*mul), &expect, "mul exp {e}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let res = ModexpBatch::new().execute();
        assert!(res.is_empty());
        assert_eq!(res.len(), 0);
    }
}
