type direction = Forward | Backward

type segment = {
  ingress_gateway : int;
  egress_gateway : int;
  interior : int list;
  direction : direction;
}

type t = {
  gateways : int list;
  segments : segment list;
}
