"""darklens: streaming analytics for network telescope (darknet) captures.

Reconstructs logical scan events from raw packets, classifies aggressive
scanners under three definitions, quantifies their share of real traffic from
sampled flow exports, and renders daily blocklists and characterization
tables.

The package re-exports nothing, so importing one submodule loads only what
that submodule needs: import from darklens.model, darklens.detect and so on.
"""
