package repro.meta

/** A named meta-information function: univariate sequence → single value
  * (paper Definition 1/2; Table I). `slot` is its index in the output of
  * the shared kernel [[SeqStats.describe]]. The 13th Table I function, the
  * Shapley value, is not a sequence function — it is computed from the
  * classifier per input feature and appended to the fingerprint by
  * [[repro.core.Fingerprinter]].
  */
final case class MetaFunction(name: String, slot: Int) extends Serializable {
  def apply(xs: Array[Double]): Double = SeqStats.describe(xs, 1 << slot)(slot)
}

object MetaFunctions {

  val Mean: MetaFunction         = MetaFunction("mean", 0)
  val StdDev: MetaFunction       = MetaFunction("stdev", 1)
  val Skew: MetaFunction         = MetaFunction("skew", 2)
  val Kurtosis: MetaFunction     = MetaFunction("kurtosis", 3)
  val Acf1: MetaFunction         = MetaFunction("acf1", 4)
  val Acf2: MetaFunction         = MetaFunction("acf2", 5)
  val Pacf1: MetaFunction        = MetaFunction("pacf1", 6)
  val Pacf2: MetaFunction        = MetaFunction("pacf2", 7)
  val MutualInfo: MetaFunction   = MetaFunction("mi", 8)
  val TurningPoint: MetaFunction = MetaFunction("turning", 9)
  val ImfEntropy1: MetaFunction  = MetaFunction("imf1", 10)
  val ImfEntropy2: MetaFunction  = MetaFunction("imf2", 11)

  /** The 12 sequence functions applied to every behaviour source, in slot order. */
  val all: IndexedSeq[MetaFunction] = IndexedSeq(
    Mean, StdDev, Skew, Kurtosis, Acf1, Acf2, Pacf1, Pacf2,
    MutualInfo, TurningPoint, ImfEntropy1, ImfEntropy2)

  /** Table V row groups: the paired functions the paper reports together. */
  val tableVGroups: IndexedSeq[(String, IndexedSeq[MetaFunction])] = IndexedSeq(
    "Mean"                    -> IndexedSeq(Mean),
    "Standard Deviation"      -> IndexedSeq(StdDev),
    "Skew"                    -> IndexedSeq(Skew),
    "Kurtosis"                -> IndexedSeq(Kurtosis),
    "Autocorrelation"         -> IndexedSeq(Acf1, Acf2),
    "Partial Autocorrelation" -> IndexedSeq(Pacf1, Pacf2),
    "Mutual Information"      -> IndexedSeq(MutualInfo),
    "Turning point rate"      -> IndexedSeq(TurningPoint),
    "Entropy of IMFs"         -> IndexedSeq(ImfEntropy1, ImfEntropy2),
  )
}
