package repro.perfbench

import scala.collection.mutable

/** One timed interval at a layer boundary. Spans of one workload pass share
  * `pass`; `parent` is the id of the span that caused it (-1 for a root, or
  * for a span recorded off the driver thread until [[Trace.resolved]] finds
  * the innermost span that contains it).
  */
final case class Span(pass: Int, id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
}

/** In-memory span recorder. Disabled unless the run is traced, in which case
  * a span costs two clock reads and one append; spans are written out once,
  * when the benchmark ends.
  */
object Trace {
  @volatile var enabled: Boolean = false
  @volatile private var pass: Int = -1
  private var nextId = 0
  private val recorded = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Stack.empty[Int]
  // Wall-clock nanoseconds, so spans line up with Spark's millisecond event times.
  private val epochOffsetNs = System.currentTimeMillis() * 1000000L - System.nanoTime()

  def now(): Long = System.nanoTime() + epochOffsetNs

  def beginPass(p: Int): Unit = pass = p

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val (id, parent) = synchronized { nextId += 1; (nextId, open.headOption.getOrElse(-1)) }
      open.push(id)
      val start = now()
      try body
      finally {
        open.pop()
        val end = now()
        synchronized(recorded += Span(pass, id, parent, name, start, end))
      }
    }

  /** Record a span measured elsewhere (another thread, or Spark's clock). */
  def add(name: String, startNs: Long, endNs: Long): Unit =
    if (enabled) synchronized {
      nextId += 1
      recorded += Span(pass, nextId, -1, name, startNs, endNs)
    }

  /** All spans, with every parentless non-pass span attached to the
    * innermost span of its pass that contains its start.
    */
  def resolved: Seq[Span] = {
    val all = synchronized(recorded.toVector)
    all.map { s =>
      if (s.parent >= 0 || s.name == "pass") s
      else {
        val host = all.filter(h => h.id != s.id && h.pass == s.pass &&
          h.startNs <= s.startNs && s.startNs < h.endNs && h.durationNs >= s.durationNs)
        if (host.isEmpty) s else s.copy(parent = host.minBy(h => (h.durationNs, -h.id)).id)
      }
    }
  }

  /** Self time of each span: its duration minus the part of it that its
    * children cover.
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(k => (math.max(k.startNs, s.startNs), math.min(k.endNs, s.endNs)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L
      var reach = Long.MinValue
      kids.foreach { case (a, b) =>
        val from = math.max(a, reach)
        if (b > from) covered += b - from
        reach = math.max(reach, b)
      }
      s.id -> (s.durationNs - covered)
    }.toMap
  }

  def write(path: java.nio.file.Path): Unit = {
    val spans = resolved
    val self = selfTimes(spans)
    val lines = spans.map { s =>
      s"""{"pass":${s.pass},"id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ns":${self(s.id)}}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}
