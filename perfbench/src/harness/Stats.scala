package repro.perfbench

/** Order statistics used for every reported figure. */
object Stats {

  /** Samples a tail percentile must have strictly above it to be reported. */
  val MinBeyond: Int = 10

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** Nearest-rank percentile `p` ∈ (0, 1], reported only when at least
    * [[MinBeyond]] samples lie above the rank it picks; otherwise the tail
    * would rest on a handful of samples and is withheld.
    */
  def tail(xs: Seq[Double], p: Double): Option[Double] = {
    require(p > 0 && p <= 1, s"percentile out of range: $p")
    if (xs.isEmpty) return None
    val s = xs.sorted
    val rank = math.ceil(p * s.length - 1e-9).toInt.max(1)
    val beyond = s.length - rank
    if (beyond >= MinBeyond) Some(s(rank - 1)) else None
  }
}
