package repro.perfbench.probes

import repro.core.{CpaCore, CpaModel}
import repro.crowd.CrowdDataset
import repro.perfbench.Stats

/** Times each `CpaCore` kernel of one VI iteration, replayed from outside on
  * a fitted model's state over its corpus. Each replay runs [[Repeats]] times
  * and the median is kept; figures are summed over the given models.
  */
object KernelReplay {
  val Repeats = 3

  private def timeMs(body: => Unit): Double = {
    val samples = (1 to Repeats).map { _ =>
      val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e6
    }
    Stats.median(samples)
  }

  /** Metric name -> value, over all `models`. */
  def apply(models: Seq[(CrowdDataset, CpaModel)]): Map[String, Double] = {
    val ms = scala.collection.mutable.Map.empty[String, Double].withDefaultValue(0.0)
    var answers = 0L
    models.foreach { case (ds, m) =>
      val as = ds.answers
      answers += as.size
      val I = m.nItems
      val g = m.globals
      val meanSize = if (as.isEmpty) 1.0 else as.iterator.map(_.labels.length).sum.toDouble / as.size
      val ySize = m.yhat.map(_.sum)
      val d = m.derived
      val byWorker = as.groupBy(_.worker).toVector
      var st = CpaCore.emptyStats(g.T, g.M, m.nLabels, I)

      ms("core.derive_ms") += timeMs(CpaCore.derive(g, CpaCore.colSums(m.phi), m.phi, ySize, meanSize))
      ms("kappaRow") += timeMs(byWorker.foreach { case (_, wa) => CpaCore.kappaRow(wa, m.phi, d) })
      ms("accumulate") += timeMs {
        st = CpaCore.emptyStats(g.T, g.M, m.nLabels, I)
        as.foreach(a => CpaCore.accumulate(st, a, m.kappa(a.worker), m.phi(a.item), d,
          m.cand(a.item), m.yhat(a.item), m.sensMc, m.fpMc))
      }
      ms("core.phiRow_ms") += timeMs((0 until I).foreach(i => CpaCore.phiRow(i, st.aIt, m.cand(i), m.yhat(i), d)))
      ms("core.inclusionScores_ms") += timeMs(
        (0 until I).foreach(i => CpaCore.inclusionScores(i, m.cand(i), m.phi(i), d, st)))
      ms("core.communityCoins_ms") += timeMs(CpaCore.communityCoins(st, meanSize))
      ms("core.updateGlobals_ms") += timeMs(
        CpaCore.updateGlobals(g.copyOf(), m.cfg, st.lamStat, m.kappa, m.phi, m.cand, m.yhat))
    }
    val perAnswer = 1e6 / math.max(1L, answers)
    ms.toMap - "kappaRow" - "accumulate" ++ Map(
      "core.kappaRow_ns_per_answer" -> ms("kappaRow") * perAnswer,
      "core.accumulate_ns_per_answer" -> ms("accumulate") * perAnswer)
  }
}
