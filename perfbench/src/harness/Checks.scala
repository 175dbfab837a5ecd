package repro.perfbench

import repro.core.CpaModel
import repro.crowd.{Answer, CrowdDataset, Metrics}

/** Output checks computed by the benchmark's own code, independently of the
  * program: set-based precision/recall (§5.1), majority voting, and
  * structural properties of label sets and variational rows. Each check
  * returns the list of problems it found (empty when the output is sound).
  */
object Checks {

  final case class PR(precision: Double, recall: Double) {
    def f1: Double = if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
  }

  /** Mean per-item precision |Y∩Y*|/|Y*| and recall |Y∩Y*|/|Y| over all
    * items; an empty side scores 1 only when the other side is empty too.
    */
  def precisionRecall(truth: Array[Array[Int]], predicted: Int => Array[Int]): PR = {
    var sp = 0.0
    var sr = 0.0
    truth.indices.foreach { i =>
      val y = truth(i).toSet
      val p = predicted(i).toSet
      val hit = (y intersect p).size.toDouble
      sp += (if (p.isEmpty) (if (y.isEmpty) 1.0 else 0.0) else hit / p.size)
      sr += (if (y.isEmpty) (if (p.isEmpty) 1.0 else 0.0) else hit / y.size)
    }
    val n = math.max(1, truth.length).toDouble
    PR(sp / n, sr / n)
  }

  /** Majority voting: label c goes to item i when more than half of the
    * item's answers contain it. Items without answers get the empty set.
    */
  def majorityVote(answers: Seq[Answer], nItems: Int, nLabels: Int): Array[Array[Int]] = {
    val nAns = new Array[Int](nItems)
    val votes = new java.util.HashMap[Long, Int]()
    answers.foreach { a =>
      nAns(a.item) += 1
      a.labels.distinct.foreach { c =>
        val k = a.item.toLong * nLabels + c
        votes.put(k, votes.getOrDefault(k, 0) + 1)
      }
    }
    val out = Array.fill(nItems)(Array.newBuilder[Int])
    votes.forEach { (k, v) =>
      val i = (k / nLabels).toInt
      if (2 * v > nAns(i)) out(i) += (k % nLabels).toInt
    }
    out.map(_.result().sorted)
  }

  /** Every item has a label set that is sorted, distinct and inside [0, C). */
  def labelSets(pred: Map[Int, Array[Int]], nItems: Int, nLabels: Int): Seq[String] = {
    val missing = (0 until nItems).filterNot(pred.contains)
    val extra = pred.keys.filter(i => i < 0 || i >= nItems)
    val bad = pred.collect {
      case (i, ls) if ls.exists(c => c < 0 || c >= nLabels) || ls.sliding(2).exists(p => p.length == 2 && p(0) >= p(1)) => i
    }
    Seq(
      if (missing.nonEmpty) Some(s"${missing.size} items without a label set, e.g. ${missing.head}") else None,
      if (extra.nonEmpty) Some(s"label sets for unknown items, e.g. ${extra.head}") else None,
      if (bad.nonEmpty) Some(s"${bad.size} label sets not sorted/distinct/in range, e.g. item ${bad.head}") else None,
    ).flatten
  }

  /** Rows are finite, non-negative and sum to 1 within `tol`. */
  def stochasticRows(name: String, rows: Array[Array[Double]], tol: Double = 1e-6): Seq[String] = {
    val bad = rows.indices.filter { r =>
      val row = rows(r)
      row.exists(x => x.isNaN || x.isInfinite || x < 0) || math.abs(row.sum - 1.0) > tol
    }
    if (bad.isEmpty) Nil else Seq(s"$name: ${bad.size} rows not a distribution, e.g. row ${bad.head}")
  }

  /** Every value is finite and inside [0, 1]. */
  def unitInterval(name: String, rows: Array[Array[Double]]): Seq[String] = {
    val bad = rows.indices.filter(r => rows(r).exists(x => x.isNaN || x < 0 || x > 1))
    if (bad.isEmpty) Nil else Seq(s"$name: ${bad.size} rows outside [0, 1], e.g. row ${bad.head}")
  }

  /** The variational state of a fitted model is well formed. */
  def modelState(model: CpaModel): Seq[String] =
    stochasticRows("kappa", model.kappa) ++ stochasticRows("phi", model.phi) ++
      unitInterval("yhat", model.yhat)

  /** Score a prediction and check it against the program's own metric and,
    * when `majorityF1` is given, against majority voting. Returns (F1, problems).
    */
  def consensus(ds: CrowdDataset, pred: Map[Int, Array[Int]], majorityF1: Option[Double]): (Double, Seq[String]) = {
    val pr = precisionRecall(ds.truth, i => pred.getOrElse(i, Array.emptyIntArray))
    val theirs = Metrics.evaluate(ds, pred)
    val agree =
      if (math.abs(theirs.precision - pr.precision) < 1e-9 && math.abs(theirs.recall - pr.recall) < 1e-9) Nil
      else Seq(f"${ds.name}: Metrics.evaluate gives P=${theirs.precision}%.6f R=${theirs.recall}%.6f, " +
        f"independent P=${pr.precision}%.6f R=${pr.recall}%.6f")
    val beat = majorityF1.filter(pr.f1 <= _).map(mv =>
      f"${ds.name}: CPA F1 ${pr.f1}%.4f does not beat majority F1 $mv%.4f").toSeq
    (pr.f1, labelSets(pred, ds.nItems, ds.nLabels) ++ agree ++ beat)
  }
}
