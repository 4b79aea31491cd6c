"""The in-daemon live dashboard served at ``GET /dashboard``.

One self-contained HTML page, no external assets, no build step — the
daemon is stdlib-only and the dashboard honours that.  Everything the
page shows comes from endpoints that already exist for scripted
clients:

* ``GET /jobs`` — the job picker;
* ``GET /events?job=…&after=…`` — the long-poll loop that feeds the
  live ranked-problem table, the events/sec sparkline, the event log,
  and the dropped-events warning (``events.dropped`` markers);
* ``GET /trace/<job>`` — the per-stage timeline lanes, drawn from the
  stored Chrome-trace duration events once the job has a trace.

The page is a *view*, deliberately: every number it renders is
fetchable with curl, so nothing here can drift from what scripted
clients see.
"""

from __future__ import annotations

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>diogenes dashboard</title>
<style>
  :root { --bg:#11151a; --panel:#1a2129; --ink:#d8e0e8; --dim:#7d8a96;
          --acc:#5fb4ef; --warn:#e2b93d; --bad:#e06c60; --ok:#8fc765; }
  body { background:var(--bg); color:var(--ink); margin:0;
         font:13px/1.45 ui-monospace,SFMono-Regular,Menlo,monospace; }
  header { display:flex; align-items:baseline; gap:1rem;
           padding:.7rem 1rem; border-bottom:1px solid #2a333d; }
  header h1 { font-size:1rem; margin:0; color:var(--acc); }
  header .sub { color:var(--dim); }
  select { background:var(--panel); color:var(--ink);
           border:1px solid #2a333d; padding:.15rem .4rem; }
  main { display:grid; grid-template-columns: 1fr 1fr; gap:.8rem;
         padding:.8rem 1rem; }
  section { background:var(--panel); border:1px solid #2a333d;
            border-radius:6px; padding:.6rem .8rem; min-height:6rem; }
  section h2 { margin:.1rem 0 .5rem; font-size:.8rem; letter-spacing:.08em;
               text-transform:uppercase; color:var(--dim); }
  #problems-panel, #timeline-panel { grid-column: 1 / span 2; }
  table { width:100%; border-collapse:collapse; }
  th, td { text-align:left; padding:.15rem .5rem .15rem 0;
           border-bottom:1px solid #232c36; white-space:nowrap; }
  th { color:var(--dim); font-weight:normal; }
  td.num, th.num { text-align:right; }
  .kind-unnecessary_sync { color:var(--warn); }
  .kind-misplaced_sync { color:var(--acc); }
  .kind-unnecessary_transfer { color:var(--bad); }
  #stats { display:flex; flex-wrap:wrap; gap:1.2rem; }
  #stats div b { display:block; font-size:1.15rem; }
  #stats div span { color:var(--dim); font-size:.75rem; }
  #gap { display:none; color:var(--bad); margin:.3rem 0; }
  #log { max-height:14rem; overflow-y:auto; color:var(--dim);
         white-space:pre-wrap; }
  #log .ev { color:var(--ink); }
  svg { display:block; width:100%; }
  .lane-label { fill:var(--dim); font-size:10px; }
  .state-done { color:var(--ok); } .state-failed { color:var(--bad); }
  .state-running { color:var(--acc); }
</style>
</head>
<body>
<header>
  <h1>diogenes</h1>
  <span class="sub">streaming analysis dashboard</span>
  <label>job <select id="job"></select></label>
  <span id="state" class="sub"></span>
</header>
<main>
  <section>
    <h2>Run</h2>
    <div id="stats">
      <div><b id="s-events">–</b><span>events seen</span></div>
      <div><b id="s-problems">–</b><span>ranked problems</span></div>
      <div><b id="s-benefit">–</b><span>est. benefit (s)</span></div>
      <div><b id="s-version">–</b><span>snapshot</span></div>
      <div><b id="s-stage">–</b><span>stage</span></div>
    </div>
    <div id="gap"></div>
  </section>
  <section>
    <h2>Events / second</h2>
    <svg id="spark" viewBox="0 0 300 60" preserveAspectRatio="none"
         height="60"></svg>
    <div class="sub" id="spark-label"></div>
  </section>
  <section id="problems-panel">
    <h2>Ranked problems (live)</h2>
    <table>
      <thead><tr><th class="num">#</th><th>kind</th><th>location</th>
        <th class="num">duration (s)</th><th class="num">est. benefit (s)</th>
      </tr></thead>
      <tbody id="problems"><tr><td colspan="5" class="sub">waiting for
        first snapshot…</td></tr></tbody>
    </table>
  </section>
  <section id="timeline-panel">
    <h2>Stage timeline</h2>
    <svg id="timeline" height="10"></svg>
    <div class="sub" id="timeline-label">trace appears when the job
      finishes (or fails)</div>
  </section>
  <section style="grid-column: 1 / span 2">
    <h2>Event log</h2>
    <div id="log"></div>
  </section>
</main>
<script>
"use strict";
const $ = id => document.getElementById(id);
let job = null, after = 0, rates = [], logLines = [], traceDrawn = false;

async function getJSON(url) {
  const resp = await fetch(url);
  if (!resp.ok) throw new Error(url + " -> " + resp.status);
  return resp.json();
}

async function loadJobs() {
  try {
    const data = await getJSON("/jobs");
    const sel = $("job"), prev = sel.value;
    sel.innerHTML = "";
    for (const j of data.jobs) {
      const opt = document.createElement("option");
      opt.value = j.id;
      opt.textContent = j.id + "  (" + j.workload + ", " + j.state + ")";
      sel.appendChild(opt);
    }
    const running = data.jobs.filter(j => j.state === "running");
    if (prev && data.jobs.some(j => j.id === prev)) sel.value = prev;
    else if (running.length) sel.value = running[running.length - 1].id;
    else if (data.jobs.length) sel.value = data.jobs[data.jobs.length - 1].id;
    if (sel.value && sel.value !== job) switchJob(sel.value);
  } catch (e) { /* daemon restarting; retry on next tick */ }
}

function switchJob(id) {
  job = id; after = 0; rates = []; logLines = []; traceDrawn = false;
  $("problems").innerHTML =
    '<tr><td colspan="5" class="sub">waiting for first snapshot…</td></tr>';
  $("gap").style.display = "none";
  $("timeline").innerHTML = "";
}

function fmt(x, digits) { return Number(x).toFixed(digits === undefined ? 6 : digits); }

function renderSnapshot(snap) {
  $("s-events").textContent = snap.events_seen.total;
  $("s-problems").textContent = snap.problem_count;
  $("s-benefit").textContent = fmt(snap.total_benefit);
  $("s-version").textContent = "v" + snap.version + (snap.final ? " (final)" : "");
  $("s-stage").textContent = snap.stage || "–";
  rates.push(snap.events_per_second);
  if (rates.length > 120) rates.shift();
  drawSpark();
  const rows = snap.problems.map((p, i) =>
    '<tr><td class="num">' + (i + 1) + '</td>' +
    '<td class="kind-' + p.kind + '">' + p.kind + '</td>' +
    '<td>' + p.location + '</td>' +
    '<td class="num">' + fmt(p.duration) + '</td>' +
    '<td class="num">' + fmt(p.est_benefit) + '</td></tr>');
  $("problems").innerHTML = rows.length ? rows.join("")
    : '<tr><td colspan="5" class="sub">no problems ranked yet (' +
      snap.events_seen.total + ' events seen)</td></tr>';
}

function drawSpark() {
  const svg = $("spark");
  if (!rates.length) return;
  const max = Math.max(...rates, 1e-9);
  const pts = rates.map((r, i) =>
    (i * 300 / Math.max(rates.length - 1, 1)).toFixed(1) + "," +
    (55 - 50 * r / max).toFixed(1)).join(" ");
  svg.innerHTML = '<polyline points="' + pts +
    '" fill="none" stroke="#5fb4ef" stroke-width="1.5"/>';
  $("spark-label").textContent = "latest " +
    fmt(rates[rates.length - 1], 0) + " ev/s · peak " + fmt(max, 0);
}

async function drawTimeline() {
  if (traceDrawn || !job) return;
  let trace;
  try { trace = await getJSON("/trace/" + job); } catch (e) { return; }
  traceDrawn = true;
  const evs = (trace.chrome_trace.traceEvents || [])
    .filter(e => e.ph === "X" && e.dur > 0);
  if (!evs.length) return;
  const t0 = Math.min(...evs.map(e => e.ts));
  const t1 = Math.max(...evs.map(e => e.ts + e.dur));
  const lanes = [...new Set(evs.map(e => e.pid + ":" + e.tid))].sort();
  const H = 18, W = 960;
  const svg = $("timeline");
  svg.setAttribute("height", lanes.length * H + 4);
  svg.setAttribute("viewBox", "0 0 " + W + " " + (lanes.length * H + 4));
  const colors = ["#5fb4ef","#8fc765","#e2b93d","#e06c60","#b07fe0","#5fd0c7"];
  let out = "";
  lanes.forEach((lane, li) => {
    out += '<text x="2" y="' + (li * H + 12) +
           '" class="lane-label">' + lane + '</text>';
  });
  evs.forEach((e, i) => {
    const li = lanes.indexOf(e.pid + ":" + e.tid);
    const x = 60 + (e.ts - t0) / (t1 - t0) * (W - 65);
    const w = Math.max(1, e.dur / (t1 - t0) * (W - 65));
    out += '<rect x="' + x.toFixed(1) + '" y="' + (li * H + 2) +
           '" width="' + w.toFixed(1) + '" height="' + (H - 6) +
           '" fill="' + colors[i % colors.length] + '" opacity="0.85">' +
           '<title>' + e.name + " (" + (e.dur / 1e6).toFixed(4) +
           "s)</title></rect>";
  });
  svg.innerHTML = out;
  $("timeline-label").textContent = lanes.length + " lanes, " +
    evs.length + " spans, " + ((t1 - t0) / 1e6).toFixed(3) + "s wall";
}

function logEvent(ev) {
  const extras = Object.entries(ev)
    .filter(([k]) => !["seq","ts","event","job","problems"].includes(k))
    .map(([k, v]) => k + "=" + (typeof v === "object" ? JSON.stringify(v) : v))
    .join(" ");
  logLines.push('[' + ev.seq + '] <span class="ev">' + ev.event +
                '</span> ' + extras);
  if (logLines.length > 200) logLines.shift();
  const log = $("log");
  log.innerHTML = logLines.join("\\n");
  log.scrollTop = log.scrollHeight;
}

async function poll() {
  if (!job) { setTimeout(poll, 500); return; }
  const polled = job;
  try {
    const data = await getJSON("/events?job=" + polled +
                               "&after=" + after + "&timeout=5");
    if (polled !== job) { setTimeout(poll, 0); return; }
    $("state").textContent = data.state;
    $("state").className = "state-" + data.state;
    for (const ev of data.events) {
      after = Math.max(after, ev.seq);
      if (ev.event === "stream.snapshot") renderSnapshot(ev);
      else if (ev.event === "events.dropped") {
        const gap = $("gap");
        gap.style.display = "block";
        gap.textContent = "⚠ gap in stream: " + ev.count +
          " events dropped before seq " + (ev.seq + 1);
        logEvent(ev);
      } else logEvent(ev);
    }
    if (data.done) await drawTimeline();
    setTimeout(poll, data.done ? 2000 : 50);
  } catch (e) { setTimeout(poll, 1000); }
}

$("job").addEventListener("change", e => switchJob(e.target.value));
loadJobs();
setInterval(loadJobs, 5000);
poll();
</script>
</body>
</html>
"""
