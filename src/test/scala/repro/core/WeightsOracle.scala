package repro.core

/** The collection-based `DynamicWeights.compute` that the primitive loops
  * replaced, kept verbatim as the test oracle.
  */
object WeightsOracle {

  private val SigmaFloor = 5e-2

  /** Scaled std of dim i of `rv` under `norm` (raw σ / observed span). */
  private def scaledStd(rv: RunningVec, norm: Normalizer, i: Int): Double =
    rv.std(i) / norm.span(i)

  private def scaledMean(rv: RunningVec, norm: Normalizer, i: Int): Double =
    rv.mean(i) / norm.span(i)

  def compute(
      active: ConceptState,
      repo: IndexedSeq[ConceptState],
      norm: Normalizer,
  ): Array[Double] = {
    val dim = active.dim
    val w = new Array[Double](dim)
    val wD = new Array[Double](dim)
    val withStats = repo.filter(_.stats.totalCount >= 2)
    // Only `add` touches scStats, which counts every dim at once, so the
    // per-dim count test is the same for all dims.
    val withSc = repo.filter(_.scStats.totalCount >= 2)
    var i = 0
    while (i < dim) {
      val wSigma = 1.0 / math.max(scaledStd(active.stats, norm, i), SigmaFloor)

      // Inter-concept variation v_s: Fisher score of μ_mi across stored
      // concepts relative to the max within-concept σ.
      val vS =
        if (withStats.length >= 2) {
          val mus = withStats.map(s => scaledMean(s.stats, norm, i))
          val mbar = mus.sum / mus.length
          val between = math.sqrt(mus.map(m => (m - mbar) * (m - mbar)).sum / mus.length)
          val maxSigma = withStats.map(s => scaledStd(s.stats, norm, i)).max
          between / math.max(maxSigma, SigmaFloor)
        } else 0.0

      // Intra-classifier variation v_sc: how much each stored classifier's
      // fingerprint moves on foreign data, relative to its home variation.
      val vSc =
        if (withSc.nonEmpty)
          withSc.map { s =>
            scaledStd(s.scStats, norm, i) / math.max(scaledStd(s.stats, norm, i), SigmaFloor)
          }.sum / withSc.length
        else 0.0

      val wd = if (vS == 0.0 && vSc == 0.0) 1.0 else math.max(vS, vSc)
      wD(i) = wd
      w(i) = wSigma * wd
      i += 1
    }
    // Calibrate so a stationary deviation (|a-b| ≈ σ per dim) yields a
    // weighted rms of ≈1 regardless of how the discrimination weights
    // evolve: divide by RMS of the w_d factors (w_σ·σ ≈ 1 by construction).
    var sumSq = 0.0
    var j = 0
    while (j < dim) { sumSq += wD(j) * wD(j); j += 1 }
    val rmsWd = math.sqrt(sumSq / dim)
    if (rmsWd > 1e-12) { j = 0; while (j < dim) { w(j) /= rmsWd; j += 1 } }
    w
  }
}
