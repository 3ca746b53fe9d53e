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

  /** The span-change set: each [[update]] that widens some dim's range
    * bumps [[version]] once, and `changedAt(i)` is the version at which dim
    * i last widened (null until the first). Transient, like every cache
    * keyed to it: a deserialized normalizer starts again from version 0.
    */
  @transient private var ver = 0
  @transient private var changedAt: Array[Int] = _

  def update(v: Array[Double]): Unit = {
    var widened = false
    var i = 0
    while (i < dim) {
      val lower = v(i) < mins(i)
      val higher = v(i) > maxs(i)
      if (lower) mins(i) = v(i)
      if (higher) maxs(i) = v(i)
      if (lower || higher) {
        if (!widened) {
          widened = true
          ver += 1
          if (changedAt == null) changedAt = new Array[Int](dim)
        }
        changedAt(i) = ver
      }
      i += 1
    }
  }

  /** Bumped by each [[update]] that changes some dim's range. */
  private[core] def version: Int = ver

  /** Whether dim i's range changed after version `since`. */
  private[core] def changedSince(since: Int, i: Int): Boolean =
    changedAt != null && changedAt(i) > since

  /** Observed range of dimension i (floored to keep divisions finite). */
  def span(i: Int): Double =
    if (maxs(i) > mins(i)) maxs(i) - mins(i) else 1.0

  /** `x` as a value of dim i, scaled to its observed range. */
  private[core] def scaled(i: Int, x: Double): Double =
    if (maxs(i) > mins(i)) math.min(1.0, math.max(0.0, (x - mins(i)) / (maxs(i) - mins(i))))
    else 0.5

  def scale(v: Array[Double]): Array[Double] = {
    val out = new Array[Double](dim)
    var i = 0
    while (i < dim) { out(i) = scaled(i, v(i)); i += 1 }
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
    require(a.length > 0, "empty vectors")
    val n = a.length
    // Aggregate over the top ⌈n/16⌉ (at least 1) most-deviating dimensions: a
    // concept drift moves a handful of meta-features by many σ while the
    // rest stay put, so a uniform mean would dilute the signal by the
    // fingerprint dimensionality. Restricting to the largest weighted
    // deviations keeps the measure sensitive regardless of how many
    // irrelevant dimensions the spec carries (the per-dataset relevance
    // itself is learned by the dynamic w_d weights, which scale `w`).
    // `top` keeps the k largest squared deviations so far in ascending
    // `Double.compare` order, the order a full sort gives them, and they
    // are summed in that order.
    val k = math.max(1, (n + 15) / 16)
    val top = new Array[Double](k)
    var kept = 0
    var i = 0
    while (i < n) {
      val d = w(i) * (a(i) - b(i))
      val v = d * d
      if (kept < k) {
        var j = kept
        while (j > 0 && java.lang.Double.compare(top(j - 1), v) > 0) { top(j) = top(j - 1); j -= 1 }
        top(j) = v
        kept += 1
      } else if (java.lang.Double.compare(v, top(0)) > 0) {
        var j = 1
        while (j < k && java.lang.Double.compare(v, top(j)) > 0) { top(j - 1) = top(j); j += 1 }
        top(j - 1) = v
      }
      i += 1
    }
    var dSq = 0.0
    i = 0
    while (i < k) { dSq += top(i); i += 1 }
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
  *
  * An instance keeps the per-dim w_σ and w_d of its last call and
  * recomputes only the dims whose inputs changed since. w_σ is stale on
  * every dim when the active concept or its `stats` version changed, w_d
  * when the concepts with σ (in `stats` or in `scStats`) or any of their
  * versions changed, and both on the dims in the normalizer's span-change
  * set. The final RMS pass covers every dim in order, so a call returns
  * the bits a fresh instance would. An engine owns one instance, built on
  * its own normalizer.
  */
final class DynamicWeights(norm: Normalizer) {
  import DynamicWeights.SigmaFloor

  // The inputs of the last call and the per-dim terms computed from them.
  private var normSeen = 0
  private var active: ConceptState = _
  private var activeSeen = 0
  private var withStats = Array.empty[ConceptState]
  private var withSc = Array.empty[ConceptState]
  /** `stats` versions of `withStats`, then `scStats` and `stats` versions
    * of `withSc` (null before the first call, which computes every dim).
    */
  private var seen: Array[Int] = _
  private val wSigma = new Array[Double](norm.dim)
  private val wD = new Array[Double](norm.dim)

  /** w_d of dim i over the concepts with σ in `stats` (`withStats`) and in
    * `scStats` (`withSc`); `mus` is scratch of `withStats.length`.
    */
  private def discrimination(i: Int, span: Double, withStats: Array[ConceptState],
      withSc: Array[ConceptState], mus: Array[Double]): Double = {
    val nS = withStats.length
    val nSc = withSc.length
    // Inter-concept variation v_s: Fisher score of μ_mi across stored
    // concepts relative to the max within-concept σ.
    var vS = 0.0
    if (nS >= 2) {
      var sum = 0.0
      var k = 0
      while (k < nS) { mus(k) = withStats(k).stats.mean(i) / span; sum += mus(k); k += 1 }
      val mbar = sum / nS
      var ss = 0.0
      var maxSigma = withStats(0).stats.std(i) / span
      k = 0
      while (k < nS) {
        val d = mus(k) - mbar
        ss += d * d
        val sd = withStats(k).stats.std(i) / span
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

    if (vS == 0.0 && vSc == 0.0) 1.0 else math.max(vS, vSc)
  }

  /** Per-candidate weights over the concepts of `repo`. Sums run from 0.0
    * in repository order and the max is a strict `>` scan from the first
    * concept, which on these finite terms (σs non-negative) gives the same
    * weights as collection `sum` and `max`.
    */
  def compute(active: ConceptState, repo: collection.IndexedSeq[ConceptState]): Array[Double] = {
    val dim = active.dim
    val withStats = repo.iterator.filter(_.stats.sigmaDefined).toArray
    // Only `add` touches scStats, which counts every dim at once, so the
    // per-dim count test is the same for all dims.
    val withSc = repo.iterator.filter(_.scStats.sigmaDefined).toArray
    val vers = withStats.map(_.stats.version) ++ withSc.flatMap(s => Array(s.scStats.version, s.stats.version))
    val allD = !withStats.sameElements(this.withStats) || !withSc.sameElements(this.withSc) ||
      !java.util.Arrays.equals(vers, seen)
    val allSigma = !(active eq this.active) || active.stats.version != activeSeen
    val mus = new Array[Double](withStats.length)
    var i = 0
    while (i < dim) {
      val spanChanged = norm.changedSince(normSeen, i)
      // Every σ and μ is in [0,1]-scaled units: raw value / observed span.
      val span = norm.span(i)
      if (allSigma || spanChanged) wSigma(i) = 1.0 / math.max(active.stats.std(i) / span, SigmaFloor)
      if (allD || spanChanged) wD(i) = discrimination(i, span, withStats, withSc, mus)
      i += 1
    }
    normSeen = norm.version
    this.active = active
    activeSeen = active.stats.version
    this.withStats = withStats
    this.withSc = withSc
    seen = vers

    // Calibrate so a stationary deviation (|a-b| ≈ σ per dim) yields a
    // weighted rms of ≈1 regardless of how the discrimination weights
    // evolve: divide by RMS of the w_d factors (w_σ·σ ≈ 1 by construction).
    val w = new Array[Double](dim)
    var sumSq = 0.0
    var j = 0
    while (j < dim) { w(j) = wSigma(j) * wD(j); sumSq += wD(j) * wD(j); j += 1 }
    val rmsWd = math.sqrt(sumSq / dim)
    if (rmsWd > 1e-12) { j = 0; while (j < dim) { w(j) /= rmsWd; j += 1 } }
    w
  }
}

object DynamicWeights {

  // In [0,1]-scaled units. A too-small floor lets near-constant dimensions
  // receive extreme 1/σ weights, whose static components dominate the cosine
  // norms and mask drift-relevant deviations.
  private val SigmaFloor = 5e-2

  /** The weights a fresh instance computes: every dim from scratch. */
  def compute(
      active: ConceptState,
      repo: collection.IndexedSeq[ConceptState],
      norm: Normalizer,
  ): Array[Double] = new DynamicWeights(norm).compute(active, repo)
}
