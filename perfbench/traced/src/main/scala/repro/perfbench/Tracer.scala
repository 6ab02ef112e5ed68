package repro.perfbench

/** In-memory span tracer for the traced replay.
  *
  * Spans nest on one thread; each is identified by a small integer so the
  * hot path does no map lookups. Per span name the tracer keeps the number
  * of spans, their total duration and their self time: duration minus the
  * part covered by directly nested spans. Summed over all names, self
  * time equals the duration of the outermost span.
  */
final class Tracer {
  import Tracer._

  private val self  = new Array[Long](Names.length)
  private val total = new Array[Long](Names.length)
  private val count = new Array[Long](Names.length)

  // Stack of open spans: child time accumulated under each.
  private val childNanos = new Array[Long](MaxDepth)
  private var depth = 0

  def span[A](id: Int)(body: => A): A = {
    val d = depth
    require(d < MaxDepth, s"span nesting deeper than $MaxDepth")
    childNanos(d) = 0L
    depth = d + 1
    val t0 = System.nanoTime()
    try body
    finally {
      val dur = System.nanoTime() - t0
      depth = d
      self(id) += dur - childNanos(d)
      total(id) += dur
      count(id) += 1
      if (d > 0) childNanos(d - 1) += dur
    }
  }

  def selfSeconds(id: Int): Double  = self(id) / 1e9
  def totalSeconds(id: Int): Double = total(id) / 1e9

  /** Sum of every span's self time — equals the outermost span's duration. */
  def selfSecondsSum: Double = self.sum / 1e9

  /** One line per span name that was entered: name, spans, total, self. */
  def summary: Seq[(String, Long, Double, Double)] =
    Names.indices.filter(count(_) > 0).map(i => (Names(i), count(i), total(i) / 1e9, self(i) / 1e9))
}

object Tracer {
  val MaxDepth = 256

  // Span ids. The outermost span of every replay is `Run`; its self time is
  // the method's own bookkeeping not attributed to any layer.
  val Run         = 0
  val Roots       = 1
  val Children    = 2
  val IsMin       = 3
  val GraphIds    = 4
  val Cover       = 5
  val Pes         = 6
  val Prm         = 7
  val Ips         = 8
  val Collect     = 9
  val MaxCover    = 10
  val DistScan    = 11
  val DistOffsets = 12
  val DistCover   = 13
  val DistSelect  = 14

  val Names: Array[String] = Array(
    "run", "enumeration.roots", "enumeration.children", "graph.ismin",
    "enumeration.graphids", "enumeration.cover", "cover.pes", "core.prm",
    "core.ips", "core.collect", "cover.maxcover", "dist.scan",
    "dist.offsets", "dist.cover", "dist.select",
  )
}
