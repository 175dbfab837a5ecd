package repro.perfbench.probes

import repro.core.{CpaCore, CpaEngine}
import repro.perfbench.Trace

/** Wraps the engine handed to `CpaVi.fitEngine`: each data pass becomes a
  * span, and on Spark the values each pass broadcasts are sized. This is the
  * one place that depends on the [[CpaEngine]] interface; re-point it when
  * that interface changes.
  */
final class TracingEngine(inner: CpaEngine, onSpark: Boolean) extends CpaEngine {
  /** Serialised bytes of the values the Spark engine broadcast so far. */
  var broadcastBytes = 0L

  private def shipped(values: AnyRef*): Unit =
    if (onSpark) broadcastBytes += SparkProbe.serializedBytes(values: _*)

  override def nAnswers: Long = inner.nAnswers
  override def meanAnswerSize: Double = inner.meanAnswerSize

  override def candidates(nItems: Int): Array[Array[Int]] =
    Trace.span("engine.candidates")(inner.candidates(nItems))

  override def computeKappa(kappa: Array[Array[Double]], phi: Array[Array[Double]],
      d: CpaCore.Derived): Array[Array[Double]] = {
    shipped(phi, d)
    Trace.span("engine.computeKappa")(inner.computeKappa(kappa, phi, d))
  }

  override def computeStats(T: Int, M: Int, C: Int, I: Int,
      kappa: Array[Array[Double]], phi: Array[Array[Double]],
      cand: Array[Array[Int]], yhat: Array[Array[Double]],
      d: CpaCore.Derived, sensMc: Array[Double], fpMc: Array[Double]): CpaCore.SuffStats = {
    shipped(kappa, phi, cand, yhat, d, sensMc, fpMc)
    Trace.span("engine.computeStats")(inner.computeStats(T, M, C, I, kappa, phi, cand, yhat, d, sensMc, fpMc))
  }

  override def bootstrapLambda(T: Int, M: Int, C: Int,
      kappa: Array[Array[Double]], phi: Array[Array[Double]]): Array[Double] = {
    shipped(kappa, phi)
    Trace.span("engine.bootstrapLambda")(inner.bootstrapLambda(T, M, C, kappa, phi))
  }
}
