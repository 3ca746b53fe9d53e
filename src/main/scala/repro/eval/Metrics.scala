package repro.eval

/** Evaluation measures used across Tables III–VI (paper §II, §VI). */
object Metrics {

  /** Cohen's kappa over prequential predictions. */
  def kappa(preds: IndexedSeq[Int], truths: IndexedSeq[Int], numClasses: Int): Double = {
    require(preds.length == truths.length && preds.nonEmpty, "need aligned non-empty sequences")
    val n = preds.length
    val conf = Array.ofDim[Double](numClasses, numClasses)
    var i = 0
    while (i < n) { conf(truths(i))(preds(i)) += 1; i += 1 }
    var po = 0.0
    var pe = 0.0
    var c = 0
    while (c < numClasses) {
      po += conf(c)(c) / n
      val rowSum = conf(c).sum
      var colSum = 0.0
      var r = 0
      while (r < numClasses) { colSum += conf(r)(c); r += 1 }
      pe += (rowSum / n) * (colSum / n)
      c += 1
    }
    if (math.abs(1 - pe) < 1e-12) 0.0 else (po - pe) / (1 - pe)
  }

  /** F1 of every (ground-truth concept, model id) pair, from the
    * per-timestep co-occurrence counts: one row of (model, F1) per concept.
    */
  private def coOccurrenceF1(
      modelIds: IndexedSeq[Int],
      conceptIds: IndexedSeq[Int],
  ): Seq[(Int, Seq[(Int, Double)])] = {
    val co = scala.collection.mutable.Map.empty[(Int, Int), Int].withDefaultValue(0)
    val byModel = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
    val byConcept = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
    var i = 0
    while (i < modelIds.length) {
      co((conceptIds(i), modelIds(i))) += 1
      byModel(modelIds(i)) += 1
      byConcept(conceptIds(i)) += 1
      i += 1
    }
    // .toSeq before .map: mapping a key *set* would deduplicate equal F1s.
    byConcept.keys.toSeq.map { c =>
      c -> byModel.keys.toSeq.map { m =>
        val tp = co((c, m)).toDouble
        // m is a key of byModel, so byModel(m) ≥ 1.
        val p = tp / byModel(m)
        val r = tp / byConcept(c)
        m -> (if (p + r > 0) 2 * p * r / (p + r) else 0.0)
      }
    }
  }

  /** Best-tracking model per ground-truth concept (argmax F1). */
  def bestTrackingModel(modelIds: IndexedSeq[Int], conceptIds: IndexedSeq[Int]): Map[Int, Int] =
    coOccurrenceF1(modelIds, conceptIds).map { case (c, row) => c -> row.maxBy(_._2)._1 }.toMap

  /** Co-occurrence C-F1 (paper §II): mean over ground-truth concepts of the
    * best F1 achievable by any single model id.
    */
  def cF1(modelIds: IndexedSeq[Int], conceptIds: IndexedSeq[Int]): Double = {
    require(modelIds.length == conceptIds.length && modelIds.nonEmpty, "need aligned sequences")
    val table = coOccurrenceF1(modelIds, conceptIds)
    table.map(_._2.map(_._2).max).sum / table.length
  }

  /** Discrimination ability (paper §II-A, operationalized per DESIGN.md §6):
    * at each probe, the separation between the similarity of the model best
    * tracking the probe's true concept and the mean similarity of the other
    * stored models, in units of the best model's normal-similarity σ.
    */
  def discrimination(
      probes: IndexedSeq[(Int, ProbeResult)],
      bestModel: Map[Int, Int],
  ): Option[Double] = {
    val vals = probes.flatMap { case (trueConcept, pr) =>
      for {
        m <- bestModel.get(trueConcept)
        simSelf <- pr.simByModel.get(m)
        others = pr.simByModel.removed(m).values
        if others.nonEmpty
      } yield {
        val sigma = math.max(pr.sigmaByModel.getOrElse(m, 0.0), 1e-3)
        (simSelf - others.sum / others.size) / sigma
      }
    }
    if (vals.isEmpty) None else Some(vals.sum / vals.length)
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.length

  def stdDev(xs: Seq[Double]): Double = {
    if (xs.length < 2) return 0.0
    val m = mean(xs)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / xs.length)
  }

  /** Average rank of each method across datasets (1 = best, higher values
    * rank better) over the rows of `table` (dataset → method → value).
    * Tied methods share the mean of the ranks they span (Demšar 2006,
    * §3.2.2). Values are ordered by `java.lang.Double.compare` of their
    * negations, so NaN ranks last and ties with NaN.
    */
  def averageRanks(table: Seq[Map[String, Double]]): Map[String, Double] = {
    require(table.nonEmpty, "need at least one dataset row")
    val methods = table.head.keys.toSeq
    val ranks = table.map { row =>
      methods.map { m =>
        val cmp = methods.map(o => java.lang.Double.compare(-row(o), -row(m)))
        m -> (cmp.count(_ < 0) + (cmp.count(_ == 0) + 1) / 2.0)
      }.toMap
    }
    methods.map(m => m -> ranks.map(_(m)).sum / ranks.length).toMap
  }
}
