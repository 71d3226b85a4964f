"""Baseline transports the paper compares against (section 5.2).

* ``pfabric`` — fine-grained remaining-size priorities, tiny
  priority-drop switch buffers, line-rate senders (pFabric, SIGCOMM'13);
* ``phost``  — receiver token scheduling, 2 static priorities, no
  overcommitment (pHost, CoNEXT'15);
* ``pias``   — sender-side multi-level feedback queue priorities over a
  DCTCP-style ECN congestion control (PIAS, NSDI'15);
* ``ndp``    — switch packet trimming, receiver pull pacing with
  fair-share scheduling (NDP, SIGCOMM'17);
* ``stream`` — a connection-oriented FIFO byte-stream transport (the
  TCP / InfRC comparisons of section 5.1);
* Basic      — Homa with one priority and unlimited overcommitment
  (``HomaConfig.basic()``), as in RAMCloud.
"""
