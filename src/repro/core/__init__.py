"""Discrete-event packet-level network simulator substrate.

This package provides everything below the transport layer: an event
engine with an integer picosecond clock, Ethernet-style framing, egress
ports with 8 priority queues (plus pFabric-style fine-grained queues and
NDP-style trimming), store-and-forward switches, hosts with a fixed
software delay, and topology builders matching the paper's evaluation
setups (Figure 11's 144-host fat-tree and the 16-host CloudLab cluster).
"""
