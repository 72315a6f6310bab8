module type SOURCE = sig
  include Cffs_vfs.Obs_low.SOURCE

  val namei : t -> Namei.t
end

module Make (F : SOURCE) = struct
  (* Lookups and stats are served from the namei caches, so the obs
     spans below them time only real file-system work. *)
  module Cached = Namei.Make (struct
    include Cffs_vfs.Obs_low.Make (F)

    let namei = F.namei
  end)

  (* A warm repeated path skips the component walk entirely; a shortcut
     miss still walks through [Cached], so it benefits from (and warms)
     the dentry cache. *)
  include
    Cffs_vfs.Pathfs.MakeWith
      (Cached)
      (Namei.Resolver (struct
        include Cached

        let namei = F.namei
      end))
end
