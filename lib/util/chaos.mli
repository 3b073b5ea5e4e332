(** Deterministic fault-injecting socket proxy — the adversary the
    resilience layer is tested against.

    The proxy listens on one Unix socket and forwards raw byte chunks to
    an upstream socket (both directions), injecting faults drawn from a
    seeded splitmix64 stream — the same decision discipline as
    {!Faultinject}: every draw is a pure hash of (seed, draw index), so
    a soak run's fault schedule is reproducible from its seed and draw
    count, independent of thread scheduling.

    The proxy is protocol-blind on purpose. It damages chunks, not
    frames; whether byte damage becomes a typed error (CRC wall, torn
    frame detection, timeouts) instead of silent corruption or a hang is
    exactly what the downstream stack must prove. Used in-process by the
    resilience tests and bench E40, and manually via
    [hlpower chaos-proxy].

    Counters in {!Telemetry}: ["chaos.connections"], ["chaos.chunks"],
    ["chaos.faults"], ["chaos.fault.<name>"],
    ["chaos.upstream_failures"]. *)

type fault =
  | Delay  (** hold the chunk for a drawn fraction of [max_delay_s] *)
  | Drop  (** discard the chunk; the stream silently loses bytes *)
  | Truncate  (** forward half the chunk, then close both directions *)
  | Corrupt  (** flip one drawn bit, then forward *)
  | Split  (** forward in three partial writes with small gaps *)
  | Slam  (** close both directions immediately *)

val all_faults : fault list
val fault_name : fault -> string

val fault_of_name : string -> fault option
(** Inverse of {!fault_name}; [None] for unknown names (CLI parsing). *)

type t

val start :
  ?seed:int ->
  ?rate:float ->
  ?faults:fault list ->
  ?max_delay_s:float ->
  ?workers:int ->
  listen:string ->
  upstream:string ->
  unit ->
  t
(** [start ~listen ~upstream ()] binds [listen] with {!Server.listen}
    (refusing to steal a live socket) on the caller's domain, then
    proxies every accepted connection to [upstream]. Each forwarded
    chunk suffers at most one fault with probability [rate] (default
    0.05), chosen uniformly among [faults] (default {!all_faults}). The
    proxy runs on the daemon's own {!Server.pool}: [workers] (default 8)
    bounds concurrent proxied connections, excess connections wait in
    the pool's accept queue, and a failed accept is retried a tick
    later. An unreachable [upstream] closes the client connection (a
    fault in itself).

    Ignores [SIGPIPE] process-wide, like {!Server.serve}. Returns once
    [listen] is bound; the pool runs on a background domain until
    {!stop}. Raises the typed [Invalid_input] on a rate outside [0, 1],
    a negative [max_delay_s], [workers < 1], empty [faults], or an
    unusable [listen] path. *)

val stop : t -> unit
(** Stop accepting, drain the pool (close every proxied connection and
    join its domains), and unlink the listen socket. Idempotent. *)
