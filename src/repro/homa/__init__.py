"""Homa: receiver-driven low-latency transport using network priorities.

The paper's primary contribution (section 3).  ``HomaTransport``
implements the complete protocol: blind unscheduled transmission,
receiver-driven per-packet grants, dynamic priority allocation for both
scheduled and unscheduled packets, controlled overcommitment, the
RESEND/BUSY loss machinery, connectionless at-least-once RPCs, and
incast control.
"""
