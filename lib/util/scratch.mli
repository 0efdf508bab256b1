(** Per-domain scratch owned by the value that creates it.

    An evaluation engine keeps mutable work arrays that pool workers
    must not share.  [Domain.DLS.new_key] per engine would give each
    domain its own copy, but OCaml never frees a DLS slot: every engine
    ever built would keep its scratch alive on every domain that touched
    it.  A [t] instead holds its domains' copies itself, so they die
    with the owner; one module-level DLS slot remembers the last owner
    served on each domain, so a repeated {!get} is one DLS read and one
    int compare. *)

type 'a t

(** [make create] is an owner with no scratch yet; each domain's first
    {!get} builds its copy with [create]. *)
val make : (unit -> 'a) -> 'a t

(** [get t] is the calling domain's scratch of [t], created on this
    domain's first call.  Never shared with another domain: keep what it
    returns on the calling domain. *)
val get : 'a t -> 'a
