package repro.core

/** Observed-range normalization of fingerprint dimensions to [0,1]
  * (paper §III-A: "the observed range of each meta-information feature is
  * scaled to the range [0,1]"). Running min/max per dimension; values are
  * scaled at *comparison time*, so stored concept statistics (kept raw)
  * never go stale when the observed range widens — this stands in for the
  * similarity-record transform of paper §IV (DESIGN.md §4).
  */
final class Normalizer(val dim: Int) extends Serializable {
  private val mins = Array.fill(dim)(Double.PositiveInfinity)
  private val maxs = Array.fill(dim)(Double.NegativeInfinity)

  def update(v: Array[Double]): Unit = {
    var i = 0
    while (i < dim) {
      if (v(i) < mins(i)) mins(i) = v(i)
      if (v(i) > maxs(i)) maxs(i) = v(i)
      i += 1
    }
  }

  /** Observed range of dimension i (floored to keep divisions finite). */
  def span(i: Int): Double =
    if (maxs(i) > mins(i)) maxs(i) - mins(i) else 1.0

  def scale(v: Array[Double]): Array[Double] = {
    val out = new Array[Double](dim)
    var i = 0
    while (i < dim) {
      out(i) =
        if (maxs(i) > mins(i)) math.min(1.0, math.max(0.0, (v(i) - mins(i)) / (maxs(i) - mins(i))))
        else 0.5
      i += 1
    }
    out
  }
}

object Similarity {

  /** Weighted vector similarity (paper §III-B). The paper's default is
    * weighted cosine; this reproduction uses the bounded weighted-deviation
    * measure sim = 1 / (1 + RMS(w' ⊙ (a − b))) with w' = w / RMS(w)
    * (DESIGN.md §4). Rationale: fingerprints are [0,1]-scaled and almost
    * entirely non-negative, so the cosine's norms are dominated by the large
    * *static* components of the many stationary dimensions; a drift that
    * moves a handful of dimensions by many σ changes the cosine by O(1e-2),
    * below ADWIN's detectable shift at these window sizes. The deviation
    * form keeps the architecture (one weighted vector similarity for drift
    * detection, recurrence acceptance bands and discrimination) while making
    * sparse large-z deviations dominate the value, and degenerates cleanly
    * to the univariate ER variant (sim = 1/(1+|Δ|), monotone in the paper's
    * inverse absolute difference).
    */
  def sim(a: Array[Double], b: Array[Double], w: Array[Double]): Double = {
    require(a.length == b.length && a.length == w.length, "length mismatch")
    val n = a.length
    val dev = new Array[Double](n)
    var i = 0
    while (i < n) {
      val d = w(i) * (a(i) - b(i))
      dev(i) = d * d
      i += 1
    }
    // Aggregate over the top ⌈n/16⌉ (at least 1) most-deviating dimensions: a
    // concept drift moves a handful of meta-features by many σ while the
    // rest stay put, so a uniform mean would dilute the signal by the
    // fingerprint dimensionality. Restricting to the largest weighted
    // deviations keeps the measure sensitive regardless of how many
    // irrelevant dimensions the spec carries (the per-dataset relevance
    // itself is learned by the dynamic w_d weights, which scale `w`).
    val k = math.max(1, (n + 15) / 16)
    java.util.Arrays.sort(dev)
    var dSq = 0.0
    i = n - k
    while (i < n) { dSq += dev(i); i += 1 }
    val rms = math.sqrt(dSq / k)
    // Quadratic squash calibrated so the stationary top-k deviation level
    // (≈2.5σ for multivariate fingerprints — the top-k order statistic of
    // per-dim noise) sits mid-range: multivariate drift deviations (≈6–15σ)
    // then land near 0, instead of being compressed against the stationary
    // level as a 1/(1+rms) map would do. Univariate (ER) fingerprints have
    // no order-statistic inflation, so their stationary |z|≈1 maps high.
    val s0 = if (n == 1) 1.0 else 2.5
    1.0 / (1.0 + (rms / s0) * (rms / s0))
  }
}

/** Dynamic weighting (paper §III-B): w_mi = w_σ(mi) × w_d(mi) with
  * w_σ = 1/σ_mi (scale equalization, σ in normalized units) and
  * w_d = max(v_s, v_sc) (Fisher-score discrimination ability).
  */
object DynamicWeights {

  // In [0,1]-scaled units. A too-small floor lets near-constant dimensions
  // receive extreme 1/σ weights, whose static components dominate the cosine
  // norms and mask drift-relevant deviations.
  private val SigmaFloor = 5e-2

  /** Per-candidate weights over the concepts of `repo`. Sums run from 0.0
    * in repository order and the max is a strict `>` scan from the first
    * concept, which on these finite terms (σs non-negative) gives the same
    * weights as collection `sum` and `max`.
    */
  def compute(
      active: ConceptState,
      repo: IndexedSeq[ConceptState],
      norm: Normalizer,
  ): Array[Double] = {
    val dim = active.dim
    val w = new Array[Double](dim)
    val wD = new Array[Double](dim)
    val withStats = repo.iterator.filter(_.stats.sigmaDefined).map(_.stats).toArray
    // Only `add` touches scStats, which counts every dim at once, so the
    // per-dim count test is the same for all dims.
    val withSc = repo.iterator.filter(_.scStats.sigmaDefined).toArray
    val nS = withStats.length
    val nSc = withSc.length
    val mus = new Array[Double](nS)
    var i = 0
    while (i < dim) {
      // Every σ and μ is in [0,1]-scaled units: raw value / observed span.
      val span = norm.span(i)
      val wSigma = 1.0 / math.max(active.stats.std(i) / span, SigmaFloor)

      // Inter-concept variation v_s: Fisher score of μ_mi across stored
      // concepts relative to the max within-concept σ.
      var vS = 0.0
      if (nS >= 2) {
        var sum = 0.0
        var k = 0
        while (k < nS) { mus(k) = withStats(k).mean(i) / span; sum += mus(k); k += 1 }
        val mbar = sum / nS
        var ss = 0.0
        var maxSigma = withStats(0).std(i) / span
        k = 0
        while (k < nS) {
          val d = mus(k) - mbar
          ss += d * d
          val sd = withStats(k).std(i) / span
          if (sd > maxSigma) maxSigma = sd
          k += 1
        }
        vS = math.sqrt(ss / nS) / math.max(maxSigma, SigmaFloor)
      }

      // Intra-classifier variation v_sc: how much each stored classifier's
      // fingerprint moves on foreign data, relative to its home variation.
      var vSc = 0.0
      if (nSc > 0) {
        var sum = 0.0
        var k = 0
        while (k < nSc) {
          val s = withSc(k)
          sum += (s.scStats.std(i) / span) / math.max(s.stats.std(i) / span, SigmaFloor)
          k += 1
        }
        vSc = sum / nSc
      }

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
